//! Criterion bench behind Figure 12(b): EM truth-inference runtime as a
//! function of the answer-set size, plus the real-dataset fit, plus the
//! columnar-vs-naive throughput case backing the `AnswerMatrix` refactor and
//! the kernel-level breakdown (E-step / M-step / ELBO, serial vs pooled vs
//! SIMD path) backing the PR-6 batch-kernel work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tcrowd_core::{EmOptions, InferenceResult, TCrowd, TCrowdOptions};
use tcrowd_stat::batch::{kernels, BatchKernels, KernelPath};
use tcrowd_tabular::{generate_dataset, real_sim, CellId, GeneratorConfig, Value};

fn inference_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for &answers in &[1_000usize, 5_000, 20_000] {
        let rows = (answers / 50).max(2);
        let cfg = GeneratorConfig { rows, columns: 10, answers_per_task: 5, ..Default::default() };
        let d = generate_dataset(&cfg, 7);
        group.throughput(Throughput::Elements(d.answers.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(d.answers.len()), &d, |b, d| {
            b.iter(|| {
                let r = TCrowd::default_full().infer(&d.schema, &d.answers);
                std::hint::black_box(r.iterations)
            })
        });
    }
    group.finish();
}

fn inference_real_datasets(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_real");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(8));
    for d in [real_sim::celebrity(1), real_sim::restaurant(1), real_sim::emotion(1)] {
        group.throughput(Throughput::Elements(d.answers.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(&d.schema.name), &d, |b, d| {
            b.iter(|| {
                let r = TCrowd::default_full().infer(&d.schema, &d.answers);
                std::hint::black_box(r.iterations)
            })
        });
    }
    group.finish();
}

/// Every estimate bit-identical between two fits (labels equal, continuous
/// means compared by `to_bits`), plus the fitted `φ` lane.
fn assert_bit_identical(a: &InferenceResult, b: &InferenceResult, rows: u32, cols: u32) -> bool {
    if a.iterations != b.iterations {
        return false;
    }
    if a.phi.len() != b.phi.len()
        || a.phi.iter().zip(&b.phi).any(|(x, y)| x.to_bits() != y.to_bits())
    {
        return false;
    }
    for i in 0..rows {
        for j in 0..cols {
            match (a.estimate(CellId::new(i, j)), b.estimate(CellId::new(i, j))) {
                (Value::Categorical(x), Value::Categorical(y)) if x == y => {}
                (Value::Continuous(x), Value::Continuous(y)) if x.to_bits() == y.to_bits() => {}
                _ => return false,
            }
        }
    }
    true
}

/// Differential sample check: the generic and AVX2 kernel paths produce
/// bit-equal sums, gradients and curvatures on a sweep of the `ln v` clamp range.
/// Trivially true (and reported as such) on hosts without AVX2.
fn kernels_equal_sample() -> (bool, bool) {
    let Some(wide) = BatchKernels::with_path(KernelPath::Avx2) else {
        return (true, false);
    };
    let narrow = BatchKernels::with_path(KernelPath::Generic).unwrap();
    let n = 1003; // deliberately not a multiple of the 4-lane width
    let ln_v: Vec<f64> = (0..n).map(|i| -12.0 + 24.0 * i as f64 / (n - 1) as f64).collect();
    let k: Vec<f64> = (0..n).map(|i| 0.01 + 0.37 * (i % 29) as f64).collect();
    let p: Vec<f64> = (0..n).map(|i| 0.02 + 0.95 * (i as f64 / n as f64)).collect();
    let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * 3.0f64.ln()).collect();
    let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    let (mut ga, mut gb) = (vec![0.0; n], vec![0.0; n]);
    let (mut ha, mut hb) = (vec![0.0; n], vec![0.0; n]);
    let sa = narrow.gaussian_terms(&ln_v, &k, &mut ga, &mut ha);
    let sb = wide.gaussian_terms(&ln_v, &k, &mut gb, &mut hb);
    let mut equal = sa.to_bits() == sb.to_bits() && same(&ga, &gb) && same(&ha, &hb);
    let qa = narrow.quality_terms(0.5, &ln_v, &p, &c, &mut ga, &mut ha);
    let qb = wide.quality_terms(0.5, &ln_v, &p, &c, &mut gb, &mut hb);
    equal = equal && qa.to_bits() == qb.to_bits() && same(&ga, &gb) && same(&ha, &hb);
    (equal, true)
}

/// EM throughput and kernel breakdown on the 1 000×10 mixed-type table
/// (50 000 answers): the columnar CSR engine fully serial, with the pooled
/// E-step + M-step, and the naive `HashMap`-indexed reference path. Verifies
/// estimate agreement with the reference (≤ 1e-9), serial-vs-parallel
/// bit-identity, generic-vs-AVX2 kernel bit-equality, and records the
/// per-phase nanosecond breakdown in `BENCH_inference.json`.
fn em_throughput(c: &mut Criterion) {
    let cfg =
        GeneratorConfig { rows: 1_000, columns: 10, answers_per_task: 5, ..Default::default() };
    let d = generate_dataset(&cfg, 7);
    let quick = std::env::args().any(|a| a == "--quick" || a == "--test")
        || std::env::var_os("CRITERION_QUICK").is_some();
    let reps = if quick { 1 } else { 3 };

    let seq = TCrowd::new(TCrowdOptions {
        em: EmOptions { threads: 1, ..Default::default() },
        ..Default::default()
    });
    let par = TCrowd::new(TCrowdOptions {
        em: EmOptions { threads: 0, ..Default::default() },
        ..Default::default()
    });

    // Correctness gates before timing.
    let fast = seq.infer(&d.schema, &d.answers);
    let naive = seq.infer_reference(&d.schema, &d.answers);
    assert_eq!(fast.iterations, naive.iterations, "EM trajectories diverged");
    for i in 0..d.rows() as u32 {
        for j in 0..d.cols() as u32 {
            match (fast.estimate(CellId::new(i, j)), naive.estimate(CellId::new(i, j))) {
                (Value::Categorical(a), Value::Categorical(b)) => assert_eq!(a, b),
                (Value::Continuous(a), Value::Continuous(b)) => {
                    assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "({i},{j}): {a} vs {b}")
                }
                _ => panic!("datatype mismatch"),
            }
        }
    }
    let par_fit = par.infer(&d.schema, &d.answers);
    let bit_identical = assert_bit_identical(&fast, &par_fit, d.rows() as u32, d.cols() as u32);
    assert!(bit_identical, "parallel EM diverged bitwise from serial");
    let (kernels_equal, avx2_checked) = kernels_equal_sample();
    assert!(kernels_equal, "generic and AVX2 kernels diverged bitwise");

    let time = |f: &dyn Fn() -> InferenceResult| -> (f64, InferenceResult) {
        let mut best = f64::INFINITY;
        let mut keep = None;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            let r = std::hint::black_box(f());
            let ns = start.elapsed().as_nanos() as f64;
            if ns < best {
                best = ns;
                keep = Some(r);
            }
        }
        (best, keep.expect("reps >= 1"))
    };
    let (csr_seq, serial_fit) = time(&|| seq.infer(&d.schema, &d.answers));
    let (csr_par, par_fit) = time(&|| par.infer(&d.schema, &d.answers));
    let (hashmap_naive, _) = time(&|| seq.infer_reference(&d.schema, &d.answers));

    let st = serial_fit.timings;
    let pt = par_fit.timings;
    let speedup = hashmap_naive / csr_seq;
    let em_speedup = csr_seq / csr_par;
    let estep_speedup = st.estep_ns as f64 / (pt.estep_ns.max(1)) as f64;
    let mstep_speedup = st.mstep_ns as f64 / (pt.mstep_ns.max(1)) as f64;
    println!(
        "em_throughput (1000x10, {} answers): csr-serial {:.1} ms, csr-parallel {:.1} ms \
         ({} threads), hashmap-naive {:.1} ms  ->  csr speedup {speedup:.2}x, \
         parallel-over-serial {em_speedup:.2}x",
        d.answers.len(),
        csr_seq / 1e6,
        csr_par / 1e6,
        pt.threads,
        hashmap_naive / 1e6,
    );
    println!(
        "  kernel path {} (avx2 differential check: {}), serial breakdown: estep {:.1} ms, \
         mstep {:.1} ms ({} objective evals over {} EM iterations), elbo {:.1} ms; parallel: \
         estep {:.1} ms ({estep_speedup:.2}x), mstep {:.1} ms ({mstep_speedup:.2}x)",
        kernels().path().name(),
        if avx2_checked { "ran" } else { "no avx2 host" },
        st.estep_ns as f64 / 1e6,
        st.mstep_ns as f64 / 1e6,
        st.objective_evals,
        serial_fit.iterations,
        st.elbo_ns as f64 / 1e6,
        pt.estep_ns as f64 / 1e6,
        pt.mstep_ns as f64 / 1e6,
    );
    let phase_json = |t: &tcrowd_core::EmTimings| {
        format!(
            "{{\"estep_ns\": {}, \"mstep_ns\": {}, \"elbo_ns\": {}, \"objective_evals\": {}, \"threads\": {}}}",
            t.estep_ns, t.mstep_ns, t.elbo_ns, t.objective_evals, t.threads
        )
    };
    let json = format!(
        "{{\n  \"benchmark\": \"em_throughput\",\n  \"dataset\": {{\"rows\": 1000, \"columns\": 10, \"answers\": {}}},\n  \"results_ns_per_inference\": {{\n    \"csr_sequential\": {csr_seq:.0},\n    \"csr_parallel\": {csr_par:.0},\n    \"hashmap_naive\": {hashmap_naive:.0}\n  }},\n  \"kernel_breakdown\": {{\n    \"serial\": {},\n    \"parallel\": {}\n  }},\n  \"kernel_path\": \"{}\",\n  \"kernels_equal\": {kernels_equal},\n  \"avx2_differential_checked\": {avx2_checked},\n  \"serial_parallel_bit_identical\": {bit_identical},\n  \"threads\": {},\n  \"csr_speedup_over_naive\": {speedup:.3},\n  \"em_speedup_parallel_over_serial\": {em_speedup:.3},\n  \"estep_speedup\": {estep_speedup:.3},\n  \"mstep_speedup\": {mstep_speedup:.3},\n  \"estimates_equal_within\": 1e-9,\n  \"em_iterations\": {},\n  \"objective_evals\": {},\n  \"mstep_ns\": {}\n}}\n",
        d.answers.len(),
        phase_json(&st),
        phase_json(&pt),
        kernels().path().name(),
        pt.threads,
        serial_fit.iterations,
        st.objective_evals,
        st.mstep_ns,
    );
    // Land the record at the workspace root regardless of bench CWD.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_inference.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: could not write {out}: {e}");
    }

    // Also register the three cases with criterion for its own reporting.
    let mut group = c.benchmark_group("em_throughput");
    group.sample_size(reps.max(2));
    group.measurement_time(std::time::Duration::from_secs(20));
    group.throughput(Throughput::Elements(d.answers.len() as u64));
    group.bench_with_input(BenchmarkId::from_parameter("csr_sequential"), &d, |b, d| {
        b.iter(|| seq.infer(&d.schema, &d.answers).iterations)
    });
    group.bench_with_input(BenchmarkId::from_parameter("csr_parallel"), &d, |b, d| {
        b.iter(|| par.infer(&d.schema, &d.answers).iterations)
    });
    group.bench_with_input(BenchmarkId::from_parameter("hashmap_naive"), &d, |b, d| {
        b.iter(|| seq.infer_reference(&d.schema, &d.answers).iterations)
    });
    group.finish();
}

criterion_group!(benches, em_throughput, inference_scaling, inference_real_datasets);
criterion_main!(benches);
