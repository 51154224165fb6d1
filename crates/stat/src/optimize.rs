//! Ascent routines for the EM M-step and the baselines.
//!
//! The M-step of the paper's EM algorithm (Eq. 5) "applies gradient descent
//! to find the values of α, β and φ" that maximise the expected joint
//! log-likelihood. We maximise directly, with a **block-coordinate
//! diagonal-Newton** ascent ([`block_newton`]): it sweeps the caller's
//! parameter blocks in turn and, within a block, moves
//! every coordinate by `Δ_k = g_k / (λ − h_k)` — gradient over prior
//! strength minus data curvature — clipped to ±1. The step is halved until
//! the objective strictly improves, so the ascent is monotone whatever the
//! curvature model. This pays off when the Hessian is
//! diagonal within each block (in the EM model every answer touches one
//! worker, one row and one column), and when the curvatures of different
//! coordinates differ by orders of magnitude, which defeats any single
//! global step size.
//!
//! [`gradient_ascent_with`] is plain steepest ascent with one adaptive step
//! size and the same accept-only-if-improves rule, for objectives without
//! that structure (the GLAD baseline).

/// Configuration for [`gradient_ascent_with`].
#[derive(Debug, Clone, Copy)]
pub struct AscentOptions {
    /// Initial step size along the (unnormalised) gradient.
    pub initial_step: f64,
    /// Maximum number of accepted iterations.
    pub max_iters: usize,
    /// Convergence threshold on the objective improvement between accepted
    /// iterations.
    pub tol: f64,
    /// Step-halving limit per iteration before giving up on progress.
    pub max_backtracks: usize,
    /// Step growth factor applied after an immediately-accepted step.
    pub growth: f64,
}

impl Default for AscentOptions {
    fn default() -> Self {
        AscentOptions {
            initial_step: 0.1,
            max_iters: 50,
            tol: 1e-7,
            max_backtracks: 30,
            growth: 1.5,
        }
    }
}

/// Result of a [`gradient_ascent_with`] run.
#[derive(Debug, Clone)]
pub struct AscentResult {
    /// The optimised parameter vector.
    pub params: Vec<f64>,
    /// Objective value at [`Self::params`].
    pub value: f64,
    /// Number of accepted iterations performed.
    pub iterations: usize,
    /// Whether the tolerance criterion was met before `max_iters`.
    pub converged: bool,
    /// Number of objective evaluations performed (accepted + backtracked).
    pub evaluations: usize,
}

/// Maximise `f` starting from `x0` by gradient ascent with backtracking.
///
/// `f(x, grad)` fills `grad` (same length as `x`) and returns the value. A
/// step is only accepted if it strictly improves the objective, so the
/// returned value is never worse than `f(x0)`. The four vectors this
/// routine juggles (current/trial point, current/trial gradient) are
/// allocated once and swapped.
pub fn gradient_ascent_with<F>(mut f: F, x0: &[f64], opts: &AscentOptions) -> AscentResult
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    let mut x = x0.to_vec();
    let mut grad = vec![0.0; x.len()];
    let mut trial = vec![0.0; x.len()];
    let mut trial_grad = vec![0.0; x.len()];
    let mut value = f(&x, &mut grad);
    let mut evaluations = 1usize;
    let mut step = opts.initial_step;
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..opts.max_iters {
        // Scale step against gradient magnitude so it is a trust region on
        // parameter movement, not on raw gradient units.
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if gnorm < 1e-14 {
            converged = true;
            break;
        }
        let mut accepted = false;
        let mut local_step = step;
        for bt in 0..=opts.max_backtracks {
            for i in 0..x.len() {
                trial[i] = x[i] + local_step * grad[i] / gnorm.max(1.0);
            }
            let tv = f(&trial, &mut trial_grad);
            evaluations += 1;
            if tv > value && tv.is_finite() {
                let improvement = tv - value;
                std::mem::swap(&mut x, &mut trial);
                std::mem::swap(&mut grad, &mut trial_grad);
                value = tv;
                iterations += 1;
                // Reward an immediately successful step with growth.
                step = if bt == 0 { local_step * opts.growth } else { local_step };
                accepted = true;
                if improvement < opts.tol {
                    converged = true;
                }
                break;
            }
            local_step *= 0.5;
        }
        if !accepted {
            converged = true; // no improving direction at any step size
            break;
        }
        if converged {
            break;
        }
    }
    AscentResult { params: x, value, iterations, converged, evaluations }
}

/// Configuration of a [`block_newton`] ascent (the EM M-step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum sweeps over all blocks per ascent.
    pub max_sweeps: usize,
    /// A sweep that improves the objective by less than this ends the
    /// ascent, and a block whose step the local quadratic model predicts to
    /// gain less is not stepped at all.
    pub tol: f64,
}

/// Largest move of one coordinate in one Newton step. For log-parameters
/// that is a factor of `e` — a trust region that keeps a step computed from
/// a poor local curvature from leaving the region where it was computed.
const MAX_STEP: f64 = 1.0;

/// Step halvings per block before [`block_newton`] leaves the block where
/// it is for this sweep.
pub const MAX_BACKTRACKS: usize = 10;

/// One coordinate block of a [`block_newton`] ascent.
#[derive(Debug)]
pub struct NewtonBlock<'a> {
    /// The block's coordinates, updated in place.
    pub x: &'a mut [f64],
    /// Strength `λ` and centre `c` of the block's Gaussian prior
    /// `−λ/2 · ‖x − c‖²`, or `None` for a block held fixed.
    pub prior: Option<(f64, f64)>,
}

/// Block-coordinate diagonal-Newton ascent over `N` blocks, for objectives
/// whose Hessian is diagonal within each block.
///
/// One sweep steps the non-fixed blocks in order. For a block, `scatter`
/// sums the data part of its gradient and diagonal curvature at the last
/// evaluated point, the prior's terms are added, and every coordinate moves
/// by `Δ_k = g_k / (λ − h_k)` clipped to ±1. The step is halved until the
/// objective strictly improves (at most [`MAX_BACKTRACKS`] times),
/// so the ascent is monotone whatever the curvature model; the accepting
/// evaluation supplies the derivatives the next block starts from. A block
/// whose predicted gain is below `opts.tol` is not stepped, and the sweeps
/// stop once one gains less than that.
///
/// `eval(ctx, xs)` returns the objective (prior included) at the blocks
/// `xs` and stages in `ctx` whatever per-term derivatives it computes;
/// `scatter(ctx, b, grad, curv)` adds the data part of block `b`'s gradient
/// and curvature at the point last evaluated into the zeroed `grad` and
/// `curv`. Coordinates stay inside `±bound`. Returns the number of
/// evaluations.
pub fn block_newton<C, const N: usize>(
    opts: &NewtonOptions,
    bound: f64,
    blocks: &mut [NewtonBlock<'_>; N],
    ctx: &mut C,
    mut eval: impl FnMut(&mut C, [&[f64]; N]) -> f64,
    mut scatter: impl FnMut(&C, usize, &mut [f64], &mut [f64]),
) -> usize {
    let mut value = eval(ctx, std::array::from_fn(|i| &*blocks[i].x));
    let mut evals = 1;
    // Whether the staged derivatives belong to the current point (a fully
    // rejected line search leaves its last trial's there).
    let mut fresh = true;
    for _ in 0..opts.max_sweeps {
        let sweep_start = value;
        for b in 0..N {
            let Some((lambda, center)) = blocks[b].prior else { continue };
            if !fresh {
                value = eval(ctx, std::array::from_fn(|i| &*blocks[i].x));
                evals += 1;
                fresh = true;
            }
            let n = blocks[b].x.len();
            let (mut grad, mut curv) = (vec![0.0; n], vec![0.0; n]);
            scatter(ctx, b, &mut grad, &mut curv);
            let x = &*blocks[b].x;
            for (g, &v) in grad.iter_mut().zip(x) {
                *g -= lambda * (v - center);
            }
            let mut dir = vec![0.0; n];
            let mut trial = vec![0.0; n];
            let gain = newton_direction(&grad, &curv, lambda, &mut dir);
            let (accepted, n_evals) = if gain > opts.tol {
                backtrack(x, &dir, value, bound, &mut trial, |t| {
                    eval(ctx, std::array::from_fn(|i| if i == b { t } else { &*blocks[i].x }))
                })
            } else {
                (None, 0)
            };
            evals += n_evals;
            match accepted {
                Some(v) => {
                    value = v;
                    blocks[b].x.copy_from_slice(&trial);
                }
                None => fresh = fresh && n_evals == 0,
            }
        }
        if value - sweep_start < opts.tol {
            break;
        }
    }
    evals
}

/// Diagonal-Newton direction for one block of coordinates.
///
/// `grad[k]` is the objective's gradient (data plus prior), `curv[k]` the
/// data part of its diagonal curvature (`≤ 0` for a concave model), and
/// `lambda` the strength of the block's Gaussian prior, which adds `−λ` to
/// every diagonal entry. Writes `Δ_k = g_k / (λ − h_k)` clipped to ±1 into
/// `dir` (`0` where the ratio is undefined) and
/// returns the gain the local quadratic model predicts for the full step,
/// `Σ g_k Δ_k − ½ (λ − h_k) Δ_k²`.
fn newton_direction(grad: &[f64], curv: &[f64], lambda: f64, dir: &mut [f64]) -> f64 {
    let mut gain = 0.0;
    for k in 0..grad.len() {
        let denom = lambda - curv[k];
        let step = grad[k] / denom;
        let step = if step.is_nan() { 0.0 } else { step.clamp(-MAX_STEP, MAX_STEP) };
        dir[k] = step;
        gain += grad[k] * step - 0.5 * denom * step * step;
    }
    gain
}

/// Backtracking line search along a block direction: tries
/// `x + t·dir` (clamped into `±bound`) for `t = 1, ½, ¼, …` and stops at
/// the first trial whose objective `f(trial)` is finite and strictly
/// greater than `value`, or after [`MAX_BACKTRACKS`] halvings, or once a
/// halved trial no longer differs from `x`.
///
/// Returns the accepted value (the point is left in `trial`) or `None`,
/// together with the number of objective evaluations made.
fn backtrack<F>(
    x: &[f64],
    dir: &[f64],
    value: f64,
    bound: f64,
    trial: &mut [f64],
    mut f: F,
) -> (Option<f64>, usize)
where
    F: FnMut(&[f64]) -> f64,
{
    let mut t = 1.0;
    let mut evaluations = 0;
    for _ in 0..=MAX_BACKTRACKS {
        for k in 0..x.len() {
            trial[k] = (x[k] + t * dir[k]).clamp(-bound, bound);
        }
        if trial == x {
            break;
        }
        let tv = f(trial);
        evaluations += 1;
        if tv > value && tv.is_finite() {
            return (Some(tv), evaluations);
        }
        t *= 0.5;
    }
    (None, evaluations)
}

/// Central-difference numerical gradient, for testing analytic gradients.
pub fn numerical_gradient<F>(f: F, x: &[f64], h: f64) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let mut grad = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = f(&xp);
        xp[i] = orig - h;
        let fm = f(&xp);
        xp[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concave quadratic with known maximum:
    /// f = -(x0-1)² - 2(x1+2)²; max at (1, -2), value 0.
    fn quadratic(x: &[f64], g: &mut [f64]) -> f64 {
        g[0] = -2.0 * (x[0] - 1.0);
        g[1] = -4.0 * (x[1] + 2.0);
        -(x[0] - 1.0).powi(2) - 2.0 * (x[1] + 2.0).powi(2)
    }

    fn quadratic_value(x: &[f64]) -> f64 {
        quadratic(x, &mut [0.0; 2])
    }

    #[test]
    fn finds_quadratic_maximum() {
        let opts = AscentOptions { max_iters: 500, tol: 1e-12, ..Default::default() };
        let res = gradient_ascent_with(quadratic, &[10.0, 10.0], &opts);
        assert!((res.params[0] - 1.0).abs() < 1e-3, "x0 = {}", res.params[0]);
        assert!((res.params[1] + 2.0).abs() < 1e-3, "x1 = {}", res.params[1]);
        assert!(res.value > -1e-5);
    }

    #[test]
    fn never_decreases_objective() {
        let start = [5.0, -7.0];
        let res = gradient_ascent_with(quadratic, &start, &AscentOptions::default());
        assert!(res.value >= quadratic_value(&start));
    }

    #[test]
    fn handles_flat_gradient() {
        let flat = |_: &[f64], g: &mut [f64]| {
            g.fill(0.0);
            3.0
        };
        let res = gradient_ascent_with(flat, &[1.0, 2.0], &AscentOptions::default());
        assert!(res.converged);
        assert_eq!(res.params, vec![1.0, 2.0]);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn respects_iteration_budget() {
        let opts = AscentOptions { max_iters: 3, tol: 0.0, ..Default::default() };
        let res = gradient_ascent_with(quadratic, &[100.0, 100.0], &opts);
        assert!(res.iterations <= 3);
    }

    #[test]
    fn numerical_gradient_matches_analytic() {
        let x = [0.4, -1.3];
        let mut analytic = [0.0; 2];
        quadratic(&x, &mut analytic);
        let numeric = numerical_gradient(quadratic_value, &x, 1e-6);
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-6);
        }
    }

    #[test]
    fn nonconvex_objective_still_improves() {
        // f = -x⁴ + x² has maxima at ±1/√2; start near zero.
        let f = |x: &[f64], g: &mut [f64]| {
            g[0] = -4.0 * x[0].powi(3) + 2.0 * x[0];
            -x[0].powi(4) + x[0] * x[0]
        };
        let opts = AscentOptions { max_iters: 200, ..Default::default() };
        let res = gradient_ascent_with(f, &[0.1], &opts);
        assert!((res.params[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-2);
    }

    /// Separable concave quadratic `Σ -½ a_k (x_k - c_k)²` over two blocks,
    /// staging its per-coordinate data gradient and curvature in `ctx`.
    fn separable(a: &[f64; 4], c: &[f64; 4], xs: [&[f64]; 2], ctx: &mut [f64; 8]) -> f64 {
        let x = [xs[0][0], xs[0][1], xs[1][0], xs[1][1]];
        let mut v = 0.0;
        for k in 0..4 {
            v -= 0.5 * a[k] * (x[k] - c[k]).powi(2);
            ctx[k] = -a[k] * (x[k] - c[k]);
            ctx[4 + k] = -a[k];
        }
        v
    }

    #[test]
    fn block_newton_solves_a_separable_quadratic_in_one_sweep() {
        let a = [0.5, 3.0, 40.0, 7.0];
        let c = [0.3, -0.2, 0.6, 0.1];
        let lambda = 1.0;
        let (mut x0, mut x1) = ([0.0; 2], [0.0; 2]);
        let mut blocks = [
            NewtonBlock { x: &mut x0, prior: Some((lambda, 0.0)) },
            NewtonBlock { x: &mut x1, prior: Some((lambda, 0.0)) },
        ];
        let opts = NewtonOptions { max_sweeps: 1, tol: 0.0 };
        let evals = block_newton(
            &opts,
            10.0,
            &mut blocks,
            &mut [0.0; 8],
            |ctx, xs| {
                let prior: f64 = xs.iter().flat_map(|x| x.iter()).map(|v| v * v).sum();
                separable(&a, &c, xs, ctx) - 0.5 * lambda * prior
            },
            |ctx, b, grad, curv| {
                grad.copy_from_slice(&ctx[2 * b..2 * b + 2]);
                curv.copy_from_slice(&ctx[4 + 2 * b..4 + 2 * b + 2]);
            },
        );
        assert_eq!(evals, 3, "one evaluation to start, the exact step per block accepted at once");
        let x = [x0[0], x0[1], x1[0], x1[1]];
        for k in 0..4 {
            let optimum = a[k] * c[k] / (a[k] + lambda);
            assert!((x[k] - optimum).abs() < 1e-12, "coordinate {k}");
        }
    }

    #[test]
    fn block_newton_leaves_fixed_blocks_alone() {
        let a = [1.0; 4];
        let c = [0.5, 0.5, 0.5, 0.5];
        let (mut x0, mut x1) = ([0.0; 2], [0.25; 2]);
        let mut blocks = [
            NewtonBlock { x: &mut x0, prior: None },
            NewtonBlock { x: &mut x1, prior: Some((0.0, 0.0)) },
        ];
        let opts = NewtonOptions { max_sweeps: 4, tol: 1e-12 };
        block_newton(
            &opts,
            10.0,
            &mut blocks,
            &mut [0.0; 8],
            |ctx, xs| separable(&a, &c, xs, ctx),
            |ctx, b, grad, curv| {
                grad.copy_from_slice(&ctx[2 * b..2 * b + 2]);
                curv.copy_from_slice(&ctx[4 + 2 * b..4 + 2 * b + 2]);
            },
        );
        assert_eq!(x0, [0.0; 2]);
        assert_eq!(x1, [0.5; 2]);
    }

    #[test]
    fn newton_step_solves_a_separable_quadratic_in_one_step() {
        // f = Σ -½ a_k (x_k - c_k)² - ½ λ x_k²: curvature -a_k, prior λ.
        let a = [0.5, 3.0, 40.0];
        let c = [0.3, -0.2, 0.6];
        let lambda = 1.0;
        let f = |x: &[f64]| -> f64 {
            (0..3).map(|k| -0.5 * a[k] * (x[k] - c[k]).powi(2) - 0.5 * lambda * x[k] * x[k]).sum()
        };
        let x = [0.0; 3];
        let grad: Vec<f64> = (0..3).map(|k| a[k] * c[k]).collect();
        let curv: Vec<f64> = a.iter().map(|v| -v).collect();
        let mut dir = [0.0; 3];
        let gain = newton_direction(&grad, &curv, lambda, &mut dir);
        let mut trial = [0.0; 3];
        let (accepted, evals) = backtrack(&x, &dir, f(&x), 10.0, &mut trial, f);
        assert_eq!(evals, 1, "the exact Newton step is accepted at once");
        let v = accepted.expect("improves");
        for k in 0..3 {
            let optimum = a[k] * c[k] / (a[k] + lambda);
            assert!((trial[k] - optimum).abs() < 1e-12, "coordinate {k}");
        }
        assert!((v - f(&x) - gain).abs() < 1e-12, "predicted gain is exact on a quadratic");
    }

    #[test]
    fn newton_direction_is_clipped_and_nan_safe() {
        let mut dir = [0.0; 4];
        newton_direction(&[50.0, -50.0, 0.0, 2.0], &[-1.0, -1.0, 0.0, 0.0], 0.0, &mut dir);
        assert_eq!(dir, [MAX_STEP, -MAX_STEP, 0.0, MAX_STEP]);
    }

    #[test]
    fn backtrack_halves_until_strict_improvement_or_gives_up() {
        // Newton overshoots on f = -x⁴ from x = 1 with a tiny curvature.
        let f = |x: &[f64]| -x[0].powi(4);
        let mut trial = [0.0];
        let (v, evals) = backtrack(&[1.0], &[-4.0], -1.0, 10.0, &mut trial, f);
        assert!(v.expect("a halved step improves") > -1.0);
        assert!(evals > 1);
        // Ascent direction pointing downhill: never accepted, x untouched.
        let (v, evals) = backtrack(&[0.0], &[1.0], 0.0, 10.0, &mut trial, f);
        assert_eq!(v, None);
        assert_eq!(evals, MAX_BACKTRACKS + 1);
        // A zero direction costs no evaluation at all.
        let (v, evals) = backtrack(&[0.5], &[0.0], 0.0, 10.0, &mut trial, f);
        assert_eq!((v, evals), (None, 0));
    }
}
