//! The EM truth-inference engine (paper §4.3, Algorithm 1).
//!
//! Internal representation: answers are flattened into index-based records
//! (worker index, row, column, z-scored value), truth posteriors live in a
//! dense per-cell vector, and the parameters are optimised in log space
//! (`ln α, ln β, ln φ`) so positivity is structural rather than enforced by
//! projection.
//!
//! **M-step.** Eq. 5 asks for "gradient descent" on α, β and φ. We run a
//! block-coordinate diagonal-Newton ascent instead (see `m_step`): it
//! sweeps the worker block φ, then the row block α, then the column block
//! β. Every answer touches exactly one worker, one row and one column, so
//! within a block the Hessian of the objective is exactly diagonal; the
//! batch kernels emit each answer's `d²/d(ln v)²` next to its gradient, and
//! each coordinate moves by `Δ_k = g_k / (λ − h_k)` (clipped to ±1 in log
//! units). A block's step is halved until the objective strictly improves,
//! so every M-step is monotone and the ELBO never decreases.
//!
//! **Identifiability.** The likelihood only sees the product
//! `α_i β_j φ_u`, which leaves a two-dimensional scale ambiguity. After every
//! M-step the geometric means of `α` and `β` are renormalised to 1 and the
//! scale is pushed into `φ`, so reported difficulties are relative and
//! `φ_u` is the absolute per-worker variance.

#![allow(clippy::needless_range_loop)] // index loops here walk several parallel arrays
use crate::model::{cat_answer_ln_likelihood, quality_from_ln_variance_fast};
use crate::pool::WorkerPool;
use crate::truth::TruthDist;
use std::sync::Mutex;
use std::time::Instant;
use tcrowd_stat::batch::{kernels, BatchKernels};
use tcrowd_stat::normal::Normal;
use tcrowd_stat::optimize::{block_newton, NewtonBlock, NewtonOptions};
use tcrowd_stat::{clamp_prob, EPS};

/// Options controlling the EM loop.
#[derive(Debug, Clone, Copy)]
pub struct EmOptions {
    /// Maximum number of EM iterations (the paper observes convergence in
    /// fewer than 20).
    pub max_iters: usize,
    /// Relative ELBO-improvement threshold for convergence (the paper uses
    /// 1e-5 on parameter changes; an ELBO criterion is equivalent in practice
    /// and cheaper to evaluate). `0` disables it.
    pub tol: f64,
    /// Optional parameter-change convergence criterion: also stop once the
    /// largest absolute change of any log-parameter across one EM iteration
    /// drops below this threshold (`0` disables it, the default).
    ///
    /// Near the optimum the ELBO flattens quadratically while the parameters
    /// still drift linearly, so an ELBO threshold leaves `√tol`-sized slack
    /// in the parameters. Refit loops that need *estimate agreement* between
    /// a warm-started and a cold-started run (the `bench_refresh` contract:
    /// within 1e-6) converge on the parameters instead — a warm restart that
    /// begins at the fixed point then stops after a single polish iteration
    /// rather than random-walking at the M-step noise floor.
    pub param_tol: f64,
    /// Learn per-row difficulties `α_i` (disable for the ablation study).
    pub learn_row_difficulty: bool,
    /// Learn per-column difficulties `β_j` (disable for the ablation study).
    pub learn_col_difficulty: bool,
    /// Initial worker *quality* `q₀` (probability of a correct categorical
    /// answer) before the first M-step. The corresponding variance is derived
    /// through the inverse erf link, `φ₀ = (ε / (√2·erf⁻¹(q₀)))²`, so the
    /// starting point is calibrated to whatever `ε` resolves to.
    ///
    /// This matters: a *fixed* starting `φ` can imply `q < 1/|L|` under a
    /// small `ε`, which makes the first E-step treat every worker as
    /// adversarial and flip the posterior of small-cardinality columns — a
    /// local optimum EM never escapes. Must lie in `(0, 1)`.
    pub init_quality: f64,
    /// Strength (inverse variance) of the Gaussian prior on `ln φ`.
    ///
    /// Pure maximum-likelihood EM on categorical answers exhibits the
    /// classic confidence spiral: a worker whose answers currently agree
    /// with the posterior gets `q → 1`, which lets that single worker pin
    /// cell posteriors, which further inflates their quality. A weak MAP
    /// prior (`ln φ ~ N(ln φ₀, 1/strength)`, with `φ₀` from
    /// [`EmOptions::init_quality`]) bounds the spiral without
    /// noticeably biasing well-observed workers.
    pub phi_prior_strength: f64,
    /// Strength of the Gaussian priors on `ln α` and `ln β` (centred at 0 —
    /// difficulties are multiplicative corrections, so the prior says
    /// "average difficulty" until the data insists otherwise).
    pub difficulty_prior_strength: f64,
    /// Bounds on `ln φ` (and `ln α`, `ln β`) keeping the optimiser inside a
    /// numerically sane box.
    pub ln_param_bound: f64,
    /// Threads the E-step and every M-step/ELBO evaluation are split
    /// across; `0` (the default) means one per available core, `1` runs
    /// serially. Cells are independent in the E-step, and the M-step uses
    /// fixed chunk boundaries with an in-order reduction, so the thread
    /// count never affects the fitted numbers — they are **bit-identical**
    /// to the serial path (tested) — only wall-clock.
    pub threads: usize,
    /// The M-step's block-coordinate diagonal-Newton ascent: how many
    /// φ → α → β sweeps one M-step may take, and the objective gain below
    /// which a block is left alone and the sweeps stop.
    pub mstep: NewtonOptions,
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions {
            max_iters: 50,
            tol: 1e-6,
            param_tol: 0.0,
            learn_row_difficulty: true,
            learn_col_difficulty: true,
            init_quality: 0.7,
            phi_prior_strength: 1.0,
            difficulty_prior_strength: 4.0,
            ln_param_bound: 12.0,
            threads: 0,
            mstep: NewtonOptions { max_sweeps: 2, tol: 1e-8 },
        }
    }
}

impl EmOptions {
    /// Preset for fixed-point-accurate fits: convergence judged on the
    /// parameters alone, M-steps run to a tight tolerance, generous
    /// iteration caps. Far slower than the default and unnecessary for
    /// production estimates — use it when two runs must land on the *same*
    /// optimum to high precision (the warm-vs-cold 1e-6 agreement contract
    /// shared by the sim regression suite and `bench_refresh`).
    ///
    /// The ELBO criterion is off (`tol = 0`): a relative threshold small
    /// enough not to leave `√tol` parameter slack sits at the rounding floor
    /// of the ELBO sum itself, so it fires at random, and the more exact the
    /// M-step, the earlier (at `tol = 1e-14` with 20 sweeps per M-step,
    /// warm and cold fits of the 1000×10 table stop 1.2e-6 apart).
    pub fn deep_convergence() -> Self {
        EmOptions {
            tol: 0.0,
            param_tol: 3e-8,
            max_iters: 600,
            mstep: NewtonOptions { max_sweeps: 5, tol: 1e-13 },
            ..Default::default()
        }
    }
}

/// Column datatype as seen by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ColKind {
    /// Categorical with the given cardinality.
    Cat(u32),
    /// Continuous (values are z-scored).
    Cont,
}

/// One flattened answer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IntAnswer {
    pub worker: u32,
    pub row: u32,
    pub col: u32,
    /// Label for categorical columns (unused otherwise).
    pub label: u32,
    /// Z-scored value for continuous columns (unused otherwise).
    pub value: f64,
}

/// The flattened problem instance the EM engine operates on.
///
/// Columnar/CSR layout: `answers` is sorted cell-major (row-major slots,
/// insertion order within a cell) and `cell_offsets` delimits each cell's
/// contiguous slice — every sweep walks dense memory, no per-cell
/// indirection. Built from an [`tcrowd_tabular::AnswerMatrix`] by
/// [`crate::inference::TCrowd::infer`]; workers are indexed densely in
/// sorted-id order, which makes the whole EM pipeline deterministic.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    pub n_rows: usize,
    pub n_cols: usize,
    pub n_workers: usize,
    pub col_kind: Vec<ColKind>,
    /// Cell-major flattened answers.
    pub answers: Vec<IntAnswer>,
    /// CSR offsets into [`Self::answers`], `n_rows * n_cols + 1` entries.
    pub cell_offsets: Vec<u32>,
    /// Column-kind–segregated SoA runs of the same answers, for the batch
    /// M-step/ELBO kernels (built once here, reused every iteration).
    pub runs: MStepRuns,
    /// Quality window ε (Eq. 2), in z-score units.
    pub epsilon: f64,
}

/// The answers of a [`Workspace`] segregated by column kind into contiguous
/// structure-of-arrays runs: one continuous run, one categorical run, each
/// preserving the workspace's cell-major order. The M-step objective over
/// this layout is two branchless batch loops (see [`BatchKernels`]) instead
/// of one per-answer `ColKind` match, and the fixed-size chunks the runs are
/// cut into are the unit of (deterministic) parallelism.
#[derive(Debug, Clone, Default)]
pub(crate) struct MStepRuns {
    pub cont_row: Vec<u32>,
    pub cont_col: Vec<u32>,
    pub cont_worker: Vec<u32>,
    pub cont_value: Vec<f64>,
    pub cat_row: Vec<u32>,
    pub cat_col: Vec<u32>,
    pub cat_worker: Vec<u32>,
    pub cat_label: Vec<u32>,
    /// `ln(max(L,2) - 1)` per categorical answer — the miss-likelihood
    /// normaliser, constant across iterations so hoisted out of the kernels.
    pub cat_ln_card1: Vec<f64>,
}

impl MStepRuns {
    fn build(col_kind: &[ColKind], answers: &[IntAnswer]) -> MStepRuns {
        let mut r = MStepRuns::default();
        for a in answers {
            match col_kind[a.col as usize] {
                ColKind::Cont => {
                    r.cont_row.push(a.row);
                    r.cont_col.push(a.col);
                    r.cont_worker.push(a.worker);
                    r.cont_value.push(a.value);
                }
                ColKind::Cat(l) => {
                    r.cat_row.push(a.row);
                    r.cat_col.push(a.col);
                    r.cat_worker.push(a.worker);
                    r.cat_label.push(a.label);
                    r.cat_ln_card1.push(((l.max(2) - 1) as f64).ln());
                }
            }
        }
        r
    }
}

impl Workspace {
    /// Assemble a workspace from answers in any order: stable-sorts them
    /// cell-major and builds the CSR offsets.
    pub fn assemble(
        n_rows: usize,
        n_cols: usize,
        n_workers: usize,
        col_kind: Vec<ColKind>,
        mut answers: Vec<IntAnswer>,
        epsilon: f64,
    ) -> Workspace {
        answers.sort_by_key(|a| (a.row, a.col));
        let mut cell_offsets = vec![0u32; n_rows * n_cols + 1];
        for a in &answers {
            cell_offsets[a.row as usize * n_cols + a.col as usize + 1] += 1;
        }
        for s in 0..n_rows * n_cols {
            cell_offsets[s + 1] += cell_offsets[s];
        }
        let runs = MStepRuns::build(&col_kind, &answers);
        Workspace { n_rows, n_cols, n_workers, col_kind, answers, cell_offsets, runs, epsilon }
    }

    /// Row-major slot of a cell (test helper; the hot paths inline this).
    #[inline]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn cell_slot(&self, row: u32, col: u32) -> usize {
        row as usize * self.n_cols + col as usize
    }

    /// The contiguous answer slice of one cell slot.
    #[inline]
    pub fn cell_answers(&self, slot: usize) -> &[IntAnswer] {
        &self.answers[self.cell_offsets[slot] as usize..self.cell_offsets[slot + 1] as usize]
    }
}

/// Fitted EM state.
#[derive(Debug, Clone)]
pub(crate) struct EmState {
    pub ln_alpha: Vec<f64>,
    pub ln_beta: Vec<f64>,
    pub ln_phi: Vec<f64>,
    /// Posterior truth distribution per cell (z-space), dense row-major.
    pub truths: Vec<TruthDist>,
    /// ELBO after every EM iteration (Fig. 12a's "objective value").
    pub trace: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// The `(mean ln α, mean ln β)` the identifiability polish subtracted
    /// after convergence. A warm restart adds them back so its seed sits in
    /// the *raw* gauge the M-step priors actually rest in — seeding with the
    /// renormalised parameters would make the first M-step jump back by
    /// exactly this shift and waste the restart's head start.
    pub renorm_shift: (f64, f64),
    /// Where the wall-clock of this run went, by EM phase.
    pub timings: EmTimings,
}

/// Per-phase wall-clock breakdown of one EM run. Totals across the whole
/// run (an EM run performs `iterations + 1` E-steps/ELBO evaluations and
/// `iterations` M-steps). Surfaced through
/// [`crate::InferenceResult::timings`], the service `/stats` endpoint and
/// the inference bench, so refit-lag regressions are attributable to a
/// phase rather than a single opaque number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmTimings {
    /// Total E-step time, nanoseconds.
    pub estep_ns: u64,
    /// Total M-step (block-Newton ascent) time, nanoseconds.
    pub mstep_ns: u64,
    /// Total ELBO-evaluation time, nanoseconds.
    pub elbo_ns: u64,
    /// Number of M-step objective/gradient evaluations across the run — the
    /// multiplier that makes the batch-kernel evaluation the hot loop.
    pub objective_evals: u64,
    /// Threads the parallel phases were split across (1 = serial).
    pub threads: usize,
}

const LN_2PI: f64 = 1.8378770664093453;

/// The variance `φ₀` implied by the initial quality under window `epsilon`:
/// inverts `q = erf(ε/√(2φ))`.
pub(crate) fn initial_phi(epsilon: f64, init_quality: f64) -> f64 {
    let q0 = init_quality.clamp(0.05, 0.99);
    let x = tcrowd_stat::special::erf_inv(q0).max(EPS);
    let phi = epsilon / (std::f64::consts::SQRT_2 * x);
    (phi * phi).max(EPS)
}

/// A warm-start seed for [`run_em_from`]: the fitted log-parameters of a
/// previous, slightly-stale EM run, already aligned to the new workspace's
/// dense indices (rows/columns are positional; workers are mapped by id by
/// the caller, unseen workers get the calibrated initial `φ₀`).
///
/// Only the *parameters* are seeded — the E-step recomputes every posterior
/// from the parameters exactly, so seeding truths would be redundant. EM
/// started near the previous optimum converges in a handful of iterations
/// instead of the full cold trajectory, and — because the EM map and its
/// fixed points are unchanged — lands on the same estimates (the sim
/// regression suite asserts agreement within 1e-6 against the cold path).
#[derive(Debug, Clone)]
pub(crate) struct WarmStart {
    pub ln_alpha: Vec<f64>,
    pub ln_beta: Vec<f64>,
    pub ln_phi: Vec<f64>,
}

/// Run the full EM loop (Algorithm 1) on a workspace, cold-started
/// (`warm = None`) or seeding the parameters from a previous fit (see
/// [`WarmStart`]).
pub(crate) fn run_em_from(ws: &Workspace, opts: &EmOptions, warm: Option<&WarmStart>) -> EmState {
    let bound = opts.ln_param_bound;
    let (ln_alpha, ln_beta, ln_phi) = match warm {
        Some(w) => {
            assert_eq!(w.ln_alpha.len(), ws.n_rows, "warm-start row count mismatch");
            assert_eq!(w.ln_beta.len(), ws.n_cols, "warm-start column count mismatch");
            assert_eq!(w.ln_phi.len(), ws.n_workers, "warm-start worker count mismatch");
            let clamp = |v: &[f64]| v.iter().map(|x| x.clamp(-bound, bound)).collect();
            (clamp(&w.ln_alpha), clamp(&w.ln_beta), clamp(&w.ln_phi))
        }
        None => (
            vec![0.0; ws.n_rows],
            vec![0.0; ws.n_cols],
            vec![initial_phi(ws.epsilon, opts.init_quality).ln(); ws.n_workers],
        ),
    };
    let mut state = EmState {
        ln_alpha,
        ln_beta,
        ln_phi,
        truths: initial_truths(ws),
        trace: Vec::new(),
        iterations: 0,
        converged: false,
        renorm_shift: (0.0, 0.0),
        timings: EmTimings { threads: 1, ..EmTimings::default() },
    };
    if ws.answers.is_empty() {
        // Nothing to learn; posteriors are the priors.
        state.converged = true;
        return state;
    }

    // Resolve the batch-kernel path once and spawn the worker pool once —
    // both are reused across every iteration of this run (pre-PR-6 the
    // E-step spawned OS threads every call, which ate its own speedup).
    let kern = kernels();
    let threads = thread_count(opts.threads);
    let pool = (threads > 1).then(|| WorkerPool::new(threads));
    let pool = pool.as_ref();
    let mut scratch = EmScratch::new(ws);
    state.timings.threads = threads;

    let t = Instant::now();
    e_step_with(ws, &mut state, pool);
    state.timings.estep_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut elbo = compute_elbo(ws, &state, opts, kern, &mut scratch, pool);
    state.timings.elbo_ns += t.elapsed().as_nanos() as u64;
    state.trace.push(elbo);

    let mut prev_params: Vec<f64> = Vec::new();
    for iter in 1..=opts.max_iters {
        if opts.param_tol > 0.0 {
            prev_params.clear();
            prev_params.extend_from_slice(&state.ln_alpha);
            prev_params.extend_from_slice(&state.ln_beta);
            prev_params.extend_from_slice(&state.ln_phi);
        }
        let t = Instant::now();
        let evals = m_step(ws, &mut state, opts, kern, &mut scratch, pool);
        state.timings.mstep_ns += t.elapsed().as_nanos() as u64;
        state.timings.objective_evals += evals as u64;
        let t = Instant::now();
        e_step_with(ws, &mut state, pool);
        state.timings.estep_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let next = compute_elbo(ws, &state, opts, kern, &mut scratch, pool);
        state.timings.elbo_ns += t.elapsed().as_nanos() as u64;
        state.trace.push(next);
        state.iterations = iter;
        if (next - elbo).abs() < opts.tol * (1.0 + elbo.abs()) {
            state.converged = true;
            elbo = next;
            break;
        }
        if opts.param_tol > 0.0 {
            let moved = state
                .ln_alpha
                .iter()
                .chain(&state.ln_beta)
                .chain(&state.ln_phi)
                .zip(&prev_params)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if moved < opts.param_tol {
                state.converged = true;
                elbo = next;
                break;
            }
        }
        elbo = next;
    }
    let _ = elbo;
    state.renorm_shift = renormalize(&mut state, opts);
    state
}

/// Prior truth distributions: `N(0, 1)` in z-space for continuous cells,
/// uniform for categorical cells.
fn initial_truths(ws: &Workspace) -> Vec<TruthDist> {
    let mut out = Vec::with_capacity(ws.n_rows * ws.n_cols);
    for slot in 0..ws.n_rows * ws.n_cols {
        let col = slot % ws.n_cols;
        out.push(match ws.col_kind[col] {
            ColKind::Cat(l) => TruthDist::uniform(l),
            ColKind::Cont => TruthDist::Continuous(Normal::STANDARD),
        });
    }
    out
}

/// Threads to split EM across: the option override, else one per available
/// core.
fn thread_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Posterior of one cell under the current parameters (Eq. 4).
fn cell_posterior(
    ws: &Workspace,
    la: &[f64],
    lb: &[f64],
    lp: &[f64],
    slot: usize,
) -> Option<TruthDist> {
    let cell = ws.cell_answers(slot);
    if cell.is_empty() {
        return None; // posterior stays at the prior
    }
    let row = (slot / ws.n_cols) as u32;
    let col = (slot % ws.n_cols) as u32;
    let ln_v_of = |a: &IntAnswer| la[row as usize] + lb[col as usize] + lp[a.worker as usize];
    Some(match ws.col_kind[col as usize] {
        ColKind::Cont => {
            // Streamed precision-weighted update — same accumulation order as
            // `Normal::posterior_with_observations`, without the obs buffer.
            let mut prec = 1.0; // standard-normal prior: 1/var
            let mut weighted = 0.0; // prior mean / var
            for a in cell {
                let v = tcrowd_stat::clamp_var(ln_v_of(a).exp());
                prec += 1.0 / v;
                weighted += a.value / v;
            }
            let var = 1.0 / prec;
            TruthDist::Continuous(Normal::new(weighted * var, var))
        }
        ColKind::Cat(l) => {
            let l_us = l.max(1) as usize;
            let mut ln_p = vec![0.0f64; l_us]; // uniform prior cancels
            for a in cell {
                let q = quality_from_ln_variance_fast(ws.epsilon, ln_v_of(a));
                // Only two distinct likelihood values exist per answer.
                let ln_hit = cat_answer_ln_likelihood(q, l, true);
                let ln_miss = cat_answer_ln_likelihood(q, l, false);
                for (z, lp) in ln_p.iter_mut().enumerate() {
                    *lp += if z as u32 == a.label { ln_hit } else { ln_miss };
                }
            }
            let max = ln_p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut p: Vec<f64> = ln_p.iter().map(|lp| (lp - max).exp()).collect();
            let total: f64 = p.iter().sum();
            for v in &mut p {
                *v /= total;
            }
            TruthDist::Categorical(p)
        }
    })
}

/// Cell slots per E-step chunk. With the persistent pool a chunk claim is
/// one atomic increment plus an uncontended mutex lock, so the batch no
/// longer has to amortise a thread spawn; 64 keeps the claim traffic
/// negligible against the per-cell math while still load-balancing a
/// skewed answer distribution (chunks are *claimed* dynamically — only the
/// chunk *boundaries* are fixed, and each cell's posterior is independent,
/// so scheduling never affects the result).
const ESTEP_CHUNK: usize = 64;

/// Below this many cells a parallel E-step costs more in dispatch than it
/// saves in compute; run serial regardless of the pool.
const ESTEP_PARALLEL_MIN: usize = 256;

/// E-step (Eq. 4), serial entry point (tests and tiny tables).
#[cfg(test)]
pub(crate) fn e_step(ws: &Workspace, state: &mut EmState, _opts: &EmOptions) {
    e_step_with(ws, state, None);
}

/// E-step (Eq. 4): recompute every cell's posterior from the current
/// parameters. Cells are independent, so with a pool the slots are split
/// into fixed 64-slot chunks claimed off the pool's cursor (the paper's §7
/// notes this acceleration). Each chunk writes its posteriors directly into
/// its disjoint slice of `state.truths`, so there is no merge step and the
/// result is bit-identical to the serial path regardless of scheduling —
/// which is tested.
pub(crate) fn e_step_with(ws: &Workspace, state: &mut EmState, pool: Option<&WorkerPool>) {
    let n_slots = ws.n_rows * ws.n_cols;
    let EmState { ln_alpha, ln_beta, ln_phi, truths, .. } = state;
    let (la, lb, lp) = (&ln_alpha[..], &ln_beta[..], &ln_phi[..]);
    match pool.filter(|p| p.threads() > 1 && n_slots >= ESTEP_PARALLEL_MIN) {
        None => {
            for slot in 0..n_slots {
                if let Some(t) = cell_posterior(ws, la, lb, lp, slot) {
                    truths[slot] = t;
                }
            }
        }
        Some(p) => {
            let tasks: Vec<Mutex<(usize, &mut [TruthDist])>> = truths
                .chunks_mut(ESTEP_CHUNK)
                .enumerate()
                .map(|(i, c)| Mutex::new((i * ESTEP_CHUNK, c)))
                .collect();
            p.run(tasks.len(), &|ci| {
                let mut guard = tasks[ci].lock().expect("estep chunk mutex");
                let (base, chunk) = &mut *guard;
                for (off, out) in chunk.iter_mut().enumerate() {
                    if let Some(t) = cell_posterior(ws, la, lb, lp, *base + off) {
                        *out = t;
                    }
                }
            });
        }
    }
}

/// Answers per M-step chunk: the unit of parallelism for the batch-kernel
/// evaluation. Boundaries are **fixed** by this constant (never by thread
/// count), each chunk writes only its own disjoint slices, and the chunk
/// partial sums are reduced serially in chunk order — which is what makes
/// the parallel objective bit-identical to the serial one. 4096 answers is
/// ~100 µs of kernel work, comfortably above the per-chunk claim cost.
const MSTEP_CHUNK: usize = 4096;

/// Reusable buffer set for one EM run: the per-answer caches and the
/// staging arrays the batch kernels read/write. Allocated once per
/// `run_em_from` (sized by the workspace's SoA runs), so no objective
/// evaluation allocates.
pub(crate) struct EmScratch {
    /// Continuous answers: `K = (a − T^µ)² + T^φ` (rebuilt per posterior).
    cont_k: Vec<f64>,
    /// Categorical answers: posterior probability the answer is correct.
    cat_p: Vec<f64>,
    /// Categorical answers: `(1 − p)·ln(L−1)`, the constant miss term.
    cat_c: Vec<f64>,
    /// Staging: per-answer effective `ln v` under the evaluated parameters.
    cont_ln_v: Vec<f64>,
    cat_ln_v: Vec<f64>,
    /// Staging: per-answer `∂term/∂ln v` written by the kernels.
    cont_g: Vec<f64>,
    cat_g: Vec<f64>,
    /// Staging: per-answer `∂²term/∂(ln v)²` written by the kernels.
    cont_h: Vec<f64>,
    cat_h: Vec<f64>,
}

impl EmScratch {
    pub(crate) fn new(ws: &Workspace) -> EmScratch {
        let nc = ws.runs.cont_row.len();
        let nk = ws.runs.cat_row.len();
        EmScratch {
            cont_k: vec![0.0; nc],
            cat_p: vec![0.0; nk],
            cat_c: vec![0.0; nk],
            cont_ln_v: vec![0.0; nc],
            cat_ln_v: vec![0.0; nk],
            cont_g: vec![0.0; nc],
            cat_g: vec![0.0; nk],
            cont_h: vec![0.0; nc],
            cat_h: vec![0.0; nk],
        }
    }
}

/// Refresh the per-answer sufficient statistics from the current posteriors
/// (used by both the M-step objective and the ELBO, which see different
/// posteriors within one iteration).
fn build_cache(ws: &Workspace, truths: &[TruthDist], scratch: &mut EmScratch) {
    let r = &ws.runs;
    for j in 0..r.cont_row.len() {
        let slot = r.cont_row[j] as usize * ws.n_cols + r.cont_col[j] as usize;
        let TruthDist::Continuous(n) = &truths[slot] else {
            unreachable!("continuous answer on non-continuous posterior")
        };
        let d = r.cont_value[j] - n.mean;
        scratch.cont_k[j] = d * d + n.var;
    }
    for j in 0..r.cat_row.len() {
        let slot = r.cat_row[j] as usize * ws.n_cols + r.cat_col[j] as usize;
        let TruthDist::Categorical(p) = &truths[slot] else {
            unreachable!("categorical answer on non-categorical posterior")
        };
        let pc = clamp_prob(p.get(r.cat_label[j] as usize).copied().unwrap_or(0.0));
        scratch.cat_p[j] = pc;
        scratch.cat_c[j] = (1.0 - pc) * r.cat_ln_card1[j];
    }
}

/// One fixed chunk of a run: the slices a single kernel invocation reads
/// and writes. Chunks are disjoint, so the `Mutex` is uncontended — it
/// exists to hand the `&mut` slices across the pool's shared-closure
/// boundary, not to serialize anything.
struct ChunkTask<'a> {
    cat: bool,
    rows: &'a [u32],
    cols: &'a [u32],
    workers: &'a [u32],
    /// Cont: the `K` cache. Cat: the hit-probability cache `p`.
    aux: &'a [f64],
    /// Cat only: the miss-constant cache `c`.
    aux2: &'a [f64],
    ln_v: &'a mut [f64],
    g: &'a mut [f64],
    h: &'a mut [f64],
    /// The chunk's objective partial sum, written by the job.
    q: f64,
}

/// Gather the effective log-variances `ln(α_i β_j φ_u)` of one chunk.
/// `None` parameter slices contribute zero (difficulties frozen by the
/// ablation flags); the clamp is the M-step's optimiser box (the ELBO
/// evaluates unclamped, exactly like the pre-batch code).
#[allow(clippy::too_many_arguments)] // three param lanes + three index runs
fn fill_ln_v(
    la: Option<&[f64]>,
    lb: Option<&[f64]>,
    lp: &[f64],
    clamp: Option<f64>,
    rows: &[u32],
    cols: &[u32],
    workers: &[u32],
    out: &mut [f64],
) {
    for j in 0..out.len() {
        let va = la.map_or(0.0, |v| v[rows[j] as usize]);
        let vb = lb.map_or(0.0, |v| v[cols[j] as usize]);
        out[j] = va + vb + lp[workers[j] as usize];
    }
    if let Some(b) = clamp {
        for v in out.iter_mut() {
            *v = v.clamp(-b, b);
        }
    }
}

/// The Σ-over-answers part of both the M-step objective and the ELBO:
/// per-answer Gaussian terms over the continuous run plus categorical
/// quality terms over the categorical run, evaluated by the batch kernels
/// chunk by chunk (optionally across the pool). Returns the summed
/// objective contribution; per-answer `∂/∂ln v` lands in
/// `scratch.cont_g` / `scratch.cat_g` and `∂²/∂(ln v)²` in
/// `scratch.cont_h` / `scratch.cat_h`.
///
/// **Determinism:** chunk boundaries come from [`MSTEP_CHUNK`], each chunk
/// writes only its own slices, and the partial sums are folded serially in
/// chunk order after the barrier — so the result is bit-identical at any
/// thread count, including one.
#[allow(clippy::too_many_arguments)] // the two param groups are documented above
fn eval_answers(
    ws: &Workspace,
    la: Option<&[f64]>,
    lb: Option<&[f64]>,
    lp: &[f64],
    clamp: Option<f64>,
    kern: BatchKernels,
    scratch: &mut EmScratch,
    pool: Option<&WorkerPool>,
) -> f64 {
    let r = &ws.runs;
    let EmScratch {
        cont_k, cat_p, cat_c, cont_ln_v, cat_ln_v, cont_g, cat_g, cont_h, cat_h, ..
    } = scratch;
    let mut tasks: Vec<Mutex<ChunkTask>> = Vec::new();
    for (i, ((ln_v, g), h)) in cont_ln_v
        .chunks_mut(MSTEP_CHUNK)
        .zip(cont_g.chunks_mut(MSTEP_CHUNK))
        .zip(cont_h.chunks_mut(MSTEP_CHUNK))
        .enumerate()
    {
        let s = i * MSTEP_CHUNK;
        let e = s + ln_v.len();
        tasks.push(Mutex::new(ChunkTask {
            cat: false,
            rows: &r.cont_row[s..e],
            cols: &r.cont_col[s..e],
            workers: &r.cont_worker[s..e],
            aux: &cont_k[s..e],
            aux2: &[],
            ln_v,
            g,
            h,
            q: 0.0,
        }));
    }
    for (i, ((ln_v, g), h)) in cat_ln_v
        .chunks_mut(MSTEP_CHUNK)
        .zip(cat_g.chunks_mut(MSTEP_CHUNK))
        .zip(cat_h.chunks_mut(MSTEP_CHUNK))
        .enumerate()
    {
        let s = i * MSTEP_CHUNK;
        let e = s + ln_v.len();
        tasks.push(Mutex::new(ChunkTask {
            cat: true,
            rows: &r.cat_row[s..e],
            cols: &r.cat_col[s..e],
            workers: &r.cat_worker[s..e],
            aux: &cat_p[s..e],
            aux2: &cat_c[s..e],
            ln_v,
            g,
            h,
            q: 0.0,
        }));
    }
    let job = |ci: usize| {
        let mut guard = tasks[ci].lock().expect("mstep chunk mutex");
        let t = &mut *guard;
        fill_ln_v(la, lb, lp, clamp, t.rows, t.cols, t.workers, t.ln_v);
        t.q = if t.cat {
            kern.quality_terms(ws.epsilon, t.ln_v, t.aux, t.aux2, t.g, t.h)
        } else {
            kern.gaussian_terms(t.ln_v, t.aux, t.g, t.h)
        };
    };
    match pool.filter(|p| p.threads() > 1 && tasks.len() > 1) {
        Some(p) => p.run(tasks.len(), &job),
        None => {
            for ci in 0..tasks.len() {
                job(ci);
            }
        }
    }
    // In-order reduction: cont chunks first, then cat chunks.
    tasks.iter().map(|t| t.lock().expect("mstep chunk mutex").q).sum()
}

/// Log-density of the MAP priors at `(ln α, ln β, ln φ)` (see the field
/// docs on [`EmOptions`]); frozen difficulty blocks carry no prior.
fn log_prior(ws: &Workspace, opts: &EmOptions, la: &[f64], lb: &[f64], lp: &[f64]) -> f64 {
    let phi_center = initial_phi(ws.epsilon, opts.init_quality).ln();
    let mut lp_sum = 0.0;
    if opts.learn_row_difficulty {
        lp_sum -= 0.5 * opts.difficulty_prior_strength * la.iter().map(|v| v * v).sum::<f64>();
    }
    if opts.learn_col_difficulty {
        lp_sum -= 0.5 * opts.difficulty_prior_strength * lb.iter().map(|v| v * v).sum::<f64>();
    }
    lp_sum
        - 0.5
            * opts.phi_prior_strength
            * lp.iter().map(|v| (v - phi_center) * (v - phi_center)).sum::<f64>()
}

/// The M-step objective (Eq. 5 plus the MAP priors) at `(la, lb, lp)`, with
/// effective log-variances clamped into the optimiser box. Per-answer
/// gradients and curvatures land in the scratch staging arrays.
#[allow(clippy::too_many_arguments)] // three param blocks + the evaluation context
fn mstep_objective(
    ws: &Workspace,
    opts: &EmOptions,
    la: &[f64],
    lb: &[f64],
    lp: &[f64],
    kern: BatchKernels,
    scratch: &mut EmScratch,
    pool: Option<&WorkerPool>,
) -> f64 {
    let answers = eval_answers(
        ws,
        opts.learn_row_difficulty.then_some(la),
        opts.learn_col_difficulty.then_some(lb),
        lp,
        Some(opts.ln_param_bound),
        kern,
        scratch,
        pool,
    );
    answers + log_prior(ws, opts, la, lb, lp)
}

/// Add the staged per-answer gradient and curvature into one block's
/// coordinates, serially in fixed run order (continuous run, then
/// categorical) — so the result is the same at any M-step thread count.
fn scatter_block(
    cont_idx: &[u32],
    cat_idx: &[u32],
    scratch: &EmScratch,
    grad: &mut [f64],
    curv: &mut [f64],
) {
    for (j, &k) in cont_idx.iter().enumerate() {
        grad[k as usize] += scratch.cont_g[j];
        curv[k as usize] += scratch.cont_h[j];
    }
    for (j, &k) in cat_idx.iter().enumerate() {
        grad[k as usize] += scratch.cat_g[j];
        curv[k as usize] += scratch.cat_h[j];
    }
}

/// M-step (Eq. 5): block-coordinate diagonal-Newton ascent
/// ([`block_newton`]) on the expected complete-data log-likelihood plus the
/// MAP priors, over the active log-parameters. Returns the number of
/// objective evaluations.
///
/// One sweep steps the blocks φ, α, β in turn (frozen difficulty blocks are
/// held fixed). Every answer touches one worker, one row and one column, so
/// within a block the Hessian is exactly diagonal, and the block's gradient
/// and curvature are the per-answer ones the batch kernels staged, summed
/// per coordinate. The step is therefore a Newton step up to the
/// Gauss–Newton approximation of the categorical curvature, halved until
/// the objective strictly improves.
fn m_step(
    ws: &Workspace,
    state: &mut EmState,
    opts: &EmOptions,
    kern: BatchKernels,
    scratch: &mut EmScratch,
    pool: Option<&WorkerPool>,
) -> usize {
    build_cache(ws, &state.truths, scratch);
    let phi_center = initial_phi(ws.epsilon, opts.init_quality).ln();
    let difficulty = opts.difficulty_prior_strength;
    let mut blocks = [
        NewtonBlock { x: &mut state.ln_phi, prior: Some((opts.phi_prior_strength, phi_center)) },
        NewtonBlock {
            x: &mut state.ln_alpha,
            prior: opts.learn_row_difficulty.then_some((difficulty, 0.0)),
        },
        NewtonBlock {
            x: &mut state.ln_beta,
            prior: opts.learn_col_difficulty.then_some((difficulty, 0.0)),
        },
    ];
    let r = &ws.runs;
    block_newton(
        &opts.mstep,
        opts.ln_param_bound,
        &mut blocks,
        scratch,
        |scratch, [lp, la, lb]| mstep_objective(ws, opts, la, lb, lp, kern, scratch, pool),
        |scratch, b, grad, curv| {
            let (cont_idx, cat_idx) = match b {
                0 => (&r.cont_worker, &r.cat_worker),
                1 => (&r.cont_row, &r.cat_row),
                _ => (&r.cont_col, &r.cat_col),
            };
            scatter_block(cont_idx, cat_idx, scratch, grad, curv);
        },
    )
}

/// Identifiability polish applied once after EM converges: set the geometric
/// means of `α` and `β` to 1 and push the scale into `φ`. The likelihood only
/// sees the product `αβφ`, so posteriors are unaffected; doing this *inside*
/// the loop would fight the MAP priors and void the ELBO monotonicity
/// guarantee, so it runs exactly once at the end.
fn renormalize(state: &mut EmState, opts: &EmOptions) -> (f64, f64) {
    let mut shift = (0.0, 0.0);
    if opts.learn_row_difficulty {
        let m = state.ln_alpha.iter().sum::<f64>() / state.ln_alpha.len().max(1) as f64;
        for v in &mut state.ln_alpha {
            *v -= m;
        }
        for v in &mut state.ln_phi {
            *v += m;
        }
        shift.0 = m;
    }
    if opts.learn_col_difficulty {
        let m = state.ln_beta.iter().sum::<f64>() / state.ln_beta.len().max(1) as f64;
        for v in &mut state.ln_beta {
            *v -= m;
        }
        for v in &mut state.ln_phi {
            *v += m;
        }
        shift.1 = m;
    }
    shift
}

/// The evidence lower bound of the MAP objective: expected complete-data
/// log-likelihood plus posterior entropy plus the log-priors on the
/// parameters. Monotone non-decreasing across EM iterations (each M-step
/// only accepts improving steps, each E-step sets the posterior to the exact
/// conditional), which is property-tested.
///
/// The per-answer expectation is exactly the [`eval_answers`] sum the
/// M-step maximises — same kernels, same chunk order — evaluated at the
/// *state* parameters, unclamped (the optimiser box only applies inside
/// the M-step). What remains here is the per-cell part: prior expectation
/// and posterior entropy.
pub(crate) fn compute_elbo(
    ws: &Workspace,
    state: &EmState,
    opts: &EmOptions,
    kern: BatchKernels,
    scratch: &mut EmScratch,
    pool: Option<&WorkerPool>,
) -> f64 {
    let mut elbo = log_prior(ws, opts, &state.ln_alpha, &state.ln_beta, &state.ln_phi);
    build_cache(ws, &state.truths, scratch);
    elbo += eval_answers(
        ws,
        Some(&state.ln_alpha),
        Some(&state.ln_beta),
        &state.ln_phi,
        None,
        kern,
        scratch,
        pool,
    );
    for slot in 0..ws.n_rows * ws.n_cols {
        if ws.cell_answers(slot).is_empty() {
            continue;
        }
        match &state.truths[slot] {
            TruthDist::Continuous(n) => {
                // Prior N(0,1) expectation + posterior entropy.
                elbo += -0.5 * LN_2PI - (n.mean * n.mean + n.var) / 2.0;
                elbo += n.differential_entropy();
            }
            TruthDist::Categorical(p) => {
                let l = match ws.col_kind[slot % ws.n_cols] {
                    ColKind::Cat(l) => l,
                    ColKind::Cont => unreachable!(),
                };
                // Uniform prior expectation + Shannon entropy.
                elbo += -(l.max(1) as f64).ln();
                elbo += tcrowd_stat::entropy::shannon(p);
            }
        }
    }
    elbo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{quality_dlnv, quality_from_variance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tcrowd_stat::optimize::{numerical_gradient, MAX_BACKTRACKS};
    use tcrowd_stat::sample::{sample_std_normal, sample_weighted};

    /// Build a small synthetic workspace directly (bypassing the public API)
    /// with known worker variances.
    fn synth_workspace(
        n_rows: usize,
        cat_cols: usize,
        cont_cols: usize,
        phis: &[f64],
        seed: u64,
    ) -> (Workspace, Vec<Vec<f64>>, Vec<Vec<u32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_cols = cat_cols + cont_cols;
        let epsilon = 0.5;
        let mut col_kind = vec![ColKind::Cat(4); cat_cols];
        col_kind.extend(vec![ColKind::Cont; cont_cols]);
        // Truths: cat labels and z-space continuous values.
        let cat_truth: Vec<Vec<u32>> =
            (0..n_rows).map(|_| (0..cat_cols).map(|_| rng.gen_range(0..4)).collect()).collect();
        let cont_truth: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..cont_cols).map(|_| sample_std_normal(&mut rng)).collect())
            .collect();
        let mut answers = Vec::new();
        for i in 0..n_rows {
            for (w, &phi) in phis.iter().enumerate() {
                for j in 0..n_cols {
                    let (label, value) = if j < cat_cols {
                        let q = quality_from_variance(epsilon, phi);
                        let t = cat_truth[i][j];
                        let lab = if rng.gen_range(0.0..1.0) < q {
                            t
                        } else {
                            let w: Vec<f64> =
                                (0..4).map(|z| if z == t { 0.0 } else { 1.0 }).collect();
                            sample_weighted(&mut rng, &w) as u32
                        };
                        (lab, 0.0)
                    } else {
                        let t = cont_truth[i][j - cat_cols];
                        (0, t + phi.sqrt() * sample_std_normal(&mut rng))
                    };
                    answers.push(IntAnswer {
                        worker: w as u32,
                        row: i as u32,
                        col: j as u32,
                        label,
                        value,
                    });
                }
            }
        }
        (
            Workspace::assemble(n_rows, n_cols, phis.len(), col_kind, answers, epsilon),
            cont_truth,
            cat_truth,
        )
    }

    #[test]
    fn elbo_is_monotone_nondecreasing() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1];
        let (ws, _, _) = synth_workspace(25, 2, 2, &phis, 3);
        let state = run_em_from(&ws, &EmOptions::default(), None);
        for w in state.trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * (1.0 + w[0].abs()),
                "ELBO decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(state.iterations >= 1);
    }

    #[test]
    fn em_recovers_worker_ranking() {
        // Workers with small true φ must come out with small fitted φ.
        let phis = [0.05, 0.15, 0.4, 1.2, 3.0];
        let (ws, _, _) = synth_workspace(60, 2, 2, &phis, 7);
        let state = run_em_from(&ws, &EmOptions::default(), None);
        let fitted: Vec<f64> = state.ln_phi.iter().map(|l| l.exp()).collect();
        // Spearman-ish check: order preserved pairwise for well-separated φ.
        for i in 0..phis.len() {
            for j in 0..phis.len() {
                if phis[j] >= 4.0 * phis[i] {
                    assert!(
                        fitted[i] < fitted[j],
                        "fitted φ ordering broken: true {} vs {} but fitted {} vs {}",
                        phis[i],
                        phis[j],
                        fitted[i],
                        fitted[j]
                    );
                }
            }
        }
    }

    #[test]
    fn em_recovers_continuous_truth_better_than_single_worker() {
        let phis = [0.1, 0.3, 1.0, 2.5];
        let (ws, cont_truth, _) = synth_workspace(50, 0, 3, &phis, 11);
        let state = run_em_from(&ws, &EmOptions::default(), None);
        let mut se_est = 0.0;
        let mut se_first = 0.0;
        let mut n = 0.0;
        for i in 0..ws.n_rows {
            for j in 0..ws.n_cols {
                let slot = i * ws.n_cols + j;
                if let TruthDist::Continuous(post) = &state.truths[slot] {
                    let t = cont_truth[i][j];
                    se_est += (post.mean - t) * (post.mean - t);
                    // First answer on the cell as the naive single-source estimate.
                    let first = ws.cell_answers(slot)[0].value;
                    se_first += (first - t) * (first - t);
                    n += 1.0;
                }
            }
        }
        assert!(se_est / n < se_first / n, "EM should beat a single answer");
    }

    #[test]
    fn em_recovers_categorical_truth() {
        let phis = [0.08, 0.2, 0.5, 1.5];
        let (ws, _, cat_truth) = synth_workspace(60, 3, 0, &phis, 13);
        let state = run_em_from(&ws, &EmOptions::default(), None);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..ws.n_rows {
            for j in 0..ws.n_cols {
                if let TruthDist::Categorical(p) = &state.truths[i * ws.n_cols + j] {
                    let est = p
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .unwrap()
                        .0 as u32;
                    total += 1;
                    if est == cat_truth[i][j] {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        // Worker qualities here are (0.92, 0.74, 0.52, 0.32) on |L| = 4 with
        // only 4 answers per cell; the Bayes-optimal accuracy with *known*
        // parameters is itself below 0.95, so 0.85 is a tight bar.
        assert!(acc > 0.85, "EM accuracy {acc}");
    }

    #[test]
    fn mstep_gradient_matches_numeric() {
        let phis = [0.1, 0.8];
        let (ws, _, _) = synth_workspace(6, 1, 1, &phis, 5);
        let mut state = EmState {
            ln_alpha: vec![0.0; ws.n_rows],
            ln_beta: vec![0.0; ws.n_cols],
            ln_phi: vec![0.3f64.ln(); ws.n_workers],
            truths: initial_truths(&ws),
            trace: vec![],
            iterations: 0,
            converged: false,
            renorm_shift: (0.0, 0.0),
            timings: EmTimings::default(),
        };
        e_step(&ws, &mut state, &EmOptions::default());
        // Dense per-answer caches, independent of the SoA scratch layout.
        let mut cache_cont_k = vec![0.0; ws.answers.len()];
        let mut cache_cat_p = vec![0.0; ws.answers.len()];
        for (i, a) in ws.answers.iter().enumerate() {
            match &state.truths[ws.cell_slot(a.row, a.col)] {
                TruthDist::Continuous(n) => {
                    let d = a.value - n.mean;
                    cache_cont_k[i] = d * d + n.var;
                }
                TruthDist::Categorical(p) => {
                    cache_cat_p[i] = clamp_prob(p.get(a.label as usize).copied().unwrap_or(0.0));
                }
            }
        }
        // Re-create the m-step objective inline (full parameter set).
        let (na, nb) = (ws.n_rows, ws.n_cols);
        let f = |x: &[f64]| -> f64 {
            let (la, rest) = x.split_at(na);
            let (lb, lp) = rest.split_at(nb);
            let mut q_val = 0.0;
            for (i, a) in ws.answers.iter().enumerate() {
                let v = (la[a.row as usize] + lb[a.col as usize] + lp[a.worker as usize]).exp();
                match ws.col_kind[a.col as usize] {
                    ColKind::Cont => {
                        q_val += -0.5 * (LN_2PI + v.ln()) - cache_cont_k[i] / (2.0 * v);
                    }
                    ColKind::Cat(l) => {
                        let p = cache_cat_p[i];
                        let q = quality_from_variance(ws.epsilon, v);
                        q_val += p * q.ln() + (1.0 - p) * ((1.0 - q) / (l - 1) as f64).ln();
                    }
                }
            }
            q_val
        };
        // Analytic gradient via the same scatter logic as m_step.
        let x: Vec<f64> = state
            .ln_alpha
            .iter()
            .chain(state.ln_beta.iter())
            .chain(state.ln_phi.iter())
            .copied()
            .collect();
        let mut grad = vec![0.0; x.len()];
        for (i, a) in ws.answers.iter().enumerate() {
            let v =
                (x[a.row as usize] + x[na + a.col as usize] + x[na + nb + a.worker as usize]).exp();
            let g = match ws.col_kind[a.col as usize] {
                ColKind::Cont => -0.5 + cache_cont_k[i] / (2.0 * v),
                ColKind::Cat(_) => {
                    let p = cache_cat_p[i];
                    let q = quality_from_variance(ws.epsilon, v);
                    (p / q - (1.0 - p) / (1.0 - q)) * quality_dlnv(ws.epsilon, v)
                }
            };
            grad[a.row as usize] += g;
            grad[na + a.col as usize] += g;
            grad[na + nb + a.worker as usize] += g;
        }
        let numeric = numerical_gradient(f, &x, 1e-6);
        for (k, (a, n)) in grad.iter().zip(&numeric).enumerate() {
            assert!(
                (a - n).abs() < 1e-4 * (1.0 + n.abs()),
                "param {k}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn m_step_never_lowers_its_objective() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1];
        let (ws, _, _) = synth_workspace(30, 2, 2, &phis, 43);
        let kern = kernels();
        let frozen_rows = EmOptions { learn_row_difficulty: false, ..Default::default() };
        for opts in [EmOptions::default(), frozen_rows, EmOptions::deep_convergence()] {
            // Start points along a real EM trajectory (0..4 iterations in).
            for iters in 0..4 {
                let mut state = run_em_from(&ws, &EmOptions { max_iters: iters, ..opts }, None);
                let mut scratch = EmScratch::new(&ws);
                build_cache(&ws, &state.truths, &mut scratch);
                let objective = |state: &EmState, scratch: &mut EmScratch| {
                    let (la, lb, lp) = (&state.ln_alpha, &state.ln_beta, &state.ln_phi);
                    mstep_objective(&ws, &opts, la, lb, lp, kern, scratch, None)
                };
                let before = objective(&state, &mut scratch);
                let evals = m_step(&ws, &mut state, &opts, kern, &mut scratch, None);
                let after = objective(&state, &mut scratch);
                assert!(after >= before, "M-step lowered its objective: {before} -> {after}");
                assert!(evals >= 1);
                assert!(evals <= 1 + opts.mstep.max_sweeps * 3 * (MAX_BACKTRACKS + 2));
            }
        }
    }

    #[test]
    fn empty_workspace_converges_to_priors() {
        let ws = Workspace::assemble(3, 2, 0, vec![ColKind::Cat(3), ColKind::Cont], vec![], 0.5);
        let state = run_em_from(&ws, &EmOptions::default(), None);
        assert!(state.converged);
        assert_eq!(state.truths.len(), 6);
        assert_eq!(state.truths[0], TruthDist::uniform(3));
    }

    #[test]
    fn difficulty_normalisation_holds() {
        let phis = [0.1, 0.5, 1.0];
        let (ws, _, _) = synth_workspace(20, 1, 1, &phis, 19);
        let state = run_em_from(&ws, &EmOptions::default(), None);
        let ma: f64 = state.ln_alpha.iter().sum::<f64>() / state.ln_alpha.len() as f64;
        let mb: f64 = state.ln_beta.iter().sum::<f64>() / state.ln_beta.len() as f64;
        assert!(ma.abs() < 1e-9, "mean ln α = {ma}");
        assert!(mb.abs() < 1e-9, "mean ln β = {mb}");
    }

    #[test]
    fn ablation_flags_freeze_difficulties() {
        let phis = [0.1, 0.5, 1.0];
        let (ws, _, _) = synth_workspace(20, 1, 1, &phis, 23);
        let opts = EmOptions {
            learn_row_difficulty: false,
            learn_col_difficulty: false,
            ..Default::default()
        };
        let state = run_em_from(&ws, &opts, None);
        assert!(state.ln_alpha.iter().all(|v| *v == 0.0));
        assert!(state.ln_beta.iter().all(|v| *v == 0.0));
        // φ must still have been learned (moved off the calibrated init).
        let phi0 = initial_phi(ws.epsilon, opts.init_quality).ln();
        assert!(state.ln_phi.iter().any(|v| (*v - phi0).abs() > 1e-6));
    }

    #[test]
    fn fully_parallel_em_matches_serial_exactly() {
        // Both phases share one pool. 60 rows × 6 cols = 360 slots is above
        // the E-step threading threshold, and the 8 workers' 2880 answers
        // split into a continuous and a categorical M-step chunk, so every
        // pooled path genuinely runs on more than one thread.
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1, 0.4, 0.9, 1.5];
        let (ws, _, _) = synth_workspace(60, 3, 3, &phis, 41);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let serial = run_em_from(&ws, &EmOptions { threads: 1, ..Default::default() }, None);
        for threads in [2usize, 4, 8] {
            let pooled = run_em_from(&ws, &EmOptions { threads, ..Default::default() }, None);
            assert_eq!(serial.iterations, pooled.iterations, "threads = {threads}");
            for (name, a, b) in [
                ("ln φ", &serial.ln_phi, &pooled.ln_phi),
                ("ln α", &serial.ln_alpha, &pooled.ln_alpha),
                ("ln β", &serial.ln_beta, &pooled.ln_beta),
                ("trace", &serial.trace, &pooled.trace),
            ] {
                assert_eq!(bits(a), bits(b), "{name} not bit-identical ({threads} threads)");
            }
            assert_eq!(serial.truths, pooled.truths, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_estep_matches_serial_exactly() {
        // One E-step in isolation, from start points along a real EM
        // trajectory. 60×6 = 360 slots is above the threading threshold,
        // so the pooled path genuinely splits the slots into chunks.
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1, 0.4, 0.9, 1.5];
        let (ws, _, _) = synth_workspace(60, 3, 3, &phis, 31);
        for iters in 0..4 {
            let start = run_em_from(
                &ws,
                &EmOptions { threads: 1, max_iters: iters, ..Default::default() },
                None,
            );
            let mut serial = start.clone();
            e_step_with(&ws, &mut serial, None);
            for threads in [2usize, 4, 8] {
                let pool = WorkerPool::new(threads);
                let mut pooled = start.clone();
                e_step_with(&ws, &mut pooled, Some(&pool));
                assert_eq!(serial.truths, pooled.truths, "iters = {iters}, threads = {threads}");
            }
        }
    }

    #[test]
    fn parallel_mstep_matches_serial_exactly() {
        // One M-step in isolation, from start points along a real EM
        // trajectory. 50 rows × 6 cols × 8 workers = 2400 answers split into
        // a continuous and a categorical chunk, so the pooled objective
        // genuinely runs chunks on more than one thread.
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1, 0.4, 0.9, 1.5];
        let (ws, _, _) = synth_workspace(50, 3, 3, &phis, 37);
        let kern = kernels();
        let opts = EmOptions::default();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for iters in 0..4 {
            let start = run_em_from(&ws, &EmOptions { threads: 1, max_iters: iters, ..opts }, None);
            let mut serial = start.clone();
            let serial_evals =
                m_step(&ws, &mut serial, &opts, kern, &mut EmScratch::new(&ws), None);
            for threads in [2usize, 4, 8] {
                let pool = WorkerPool::new(threads);
                let mut pooled = start.clone();
                let mut scratch = EmScratch::new(&ws);
                let evals = m_step(&ws, &mut pooled, &opts, kern, &mut scratch, Some(&pool));
                assert_eq!(serial_evals, evals, "iters = {iters}, threads = {threads}");
                for (name, a, b) in [
                    ("ln φ", &serial.ln_phi, &pooled.ln_phi),
                    ("ln α", &serial.ln_alpha, &pooled.ln_alpha),
                    ("ln β", &serial.ln_beta, &pooled.ln_beta),
                ] {
                    assert_eq!(bits(a), bits(b), "{name} not bit-identical ({threads} threads)");
                }
            }
        }
    }

    #[test]
    fn warm_start_from_fitted_params_converges_fast_to_the_same_fit() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1];
        let (ws, _, _) = synth_workspace(30, 2, 2, &phis, 17);
        // The parameter criterion pins both runs to the shared fixed point;
        // the drift a warm restart may add shrinks with `param_tol` (the
        // ELBO-only default keeps ~1e-3 slack in ln φ).
        let opts = EmOptions { tol: 1e-12, param_tol: 1e-6, max_iters: 4000, ..Default::default() };
        let cold = run_em_from(&ws, &opts, None);
        let warm = WarmStart {
            ln_alpha: cold.ln_alpha.clone(),
            ln_beta: cold.ln_beta.clone(),
            ln_phi: cold.ln_phi.clone(),
        };
        let rerun = run_em_from(&ws, &opts, Some(&warm));
        assert!(rerun.converged);
        let drift = cold
            .ln_phi
            .iter()
            .zip(&rerun.ln_phi)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "cold iters {}, warm iters {}, max ln_phi drift {drift:.3e}",
            cold.iterations, rerun.iterations
        );
        assert!(drift < 1e-5, "phi drifted across a warm restart by {drift:.3e}");
    }

    #[test]
    fn converges_within_paper_iteration_budget() {
        let phis = [0.05, 0.2, 0.6, 2.0, 0.1];
        let (ws, _, _) = synth_workspace(40, 2, 2, &phis, 29);
        let state = run_em_from(&ws, &EmOptions::default(), None);
        assert!(state.converged, "EM did not converge");
        assert!(state.iterations <= 30, "took {} iterations (paper: < 20)", state.iterations);
    }
}
