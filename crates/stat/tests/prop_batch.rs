//! Differential tests for the batch kernels: the portable generic path and
//! the AVX2 wide path must be **bit-equal** for every input — including the
//! clamp boundaries (±`ln_param_bound` ⇒ ln v = ±12 by default), tiny/huge
//! variances, lane-tail lengths (n % 4 ≠ 0) and empty slices. On hosts
//! without AVX2 the wide-path assertions are skipped (the generic-vs-naive
//! accuracy tests still run); CI runs at least one AVX2-capable job.

use proptest::prelude::*;
use tcrowd_stat::batch::{BatchKernels, KernelPath};

fn wide() -> Option<BatchKernels> {
    BatchKernels::with_path(KernelPath::Avx2)
}

fn generic() -> BatchKernels {
    BatchKernels::with_path(KernelPath::Generic).unwrap()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}[{i}]: generic {} vs wide {}",
            a[i],
            b[i]
        );
    }
}

/// Edge inputs every fixed test sweeps: clamp boundaries, tiny and huge
/// log-variances, exact zero, and values straddling the erf grid edge.
fn edge_ln_v() -> Vec<f64> {
    vec![
        -12.0,
        -11.999999999,
        -8.0,
        -2.0,
        -1e-12,
        0.0,
        1e-12,
        0.25,
        1.0,
        5.0,
        7.999,
        11.999999999,
        12.0,
        -0.0,
    ]
}

#[test]
fn kernel_paths_bit_equal_on_edge_inputs() {
    let Some(w) = wide() else {
        eprintln!("skipping: no AVX2 on this host");
        return;
    };
    let g = generic();
    for eps in [1e-3, 0.05, 0.5, 1.0, 17.0] {
        let ln_v = edge_ln_v();
        let n = ln_v.len();
        let k: Vec<f64> = (0..n).map(|i| 1e-6 + i as f64 * 0.83).collect();
        let p: Vec<f64> = (0..n).map(|i| 1e-12 + (i as f64 / n as f64) * (1.0 - 2e-12)).collect();
        let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * 3.0f64.ln()).collect();

        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let (mut hg, mut hw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.gaussian_terms(&ln_v, &k, &mut gg, &mut hg);
        let sw = w.gaussian_terms(&ln_v, &k, &mut gw, &mut hw);
        assert_eq!(sg.to_bits(), sw.to_bits(), "gaussian sum, eps {eps}");
        assert_bits_eq(&gg, &gw, "gaussian grad");
        assert_bits_eq(&hg, &hw, "gaussian curv");

        let sg = g.quality_terms(eps, &ln_v, &p, &c, &mut gg, &mut hg);
        let sw = w.quality_terms(eps, &ln_v, &p, &c, &mut gw, &mut hw);
        assert_eq!(sg.to_bits(), sw.to_bits(), "quality sum, eps {eps}");
        assert_bits_eq(&gg, &gw, "quality grad");
        assert_bits_eq(&hg, &hw, "quality curv");

        let (mut qg, mut qw) = (vec![0.0; n], vec![0.0; n]);
        let (mut dg, mut dw) = (vec![0.0; n], vec![0.0; n]);
        g.quality_pairs_from_ln_variance(eps, &ln_v, &mut qg, &mut dg);
        w.quality_pairs_from_ln_variance(eps, &ln_v, &mut qw, &mut dw);
        assert_bits_eq(&qg, &qw, "q");
        assert_bits_eq(&dg, &dw, "dq");
    }
}

#[test]
fn kernel_paths_bit_equal_on_every_tail_length() {
    let Some(w) = wide() else {
        eprintln!("skipping: no AVX2 on this host");
        return;
    };
    let g = generic();
    // 0..=9 exercises empty, sub-lane, exactly-one-lane and lane+tail shapes.
    for n in 0..=9usize {
        let ln_v: Vec<f64> = (0..n).map(|i| -12.0 + i as f64 * 2.7).collect();
        let k: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
        let p: Vec<f64> = (0..n).map(|i| 0.1 + 0.09 * i as f64).collect();
        let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * 1.5).collect();
        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let (mut hg, mut hw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.gaussian_terms(&ln_v, &k, &mut gg, &mut hg);
        let sw = w.gaussian_terms(&ln_v, &k, &mut gw, &mut hw);
        assert_eq!(sg.to_bits(), sw.to_bits(), "gaussian sum, n={n}");
        assert_bits_eq(&gg, &gw, "gaussian grad");
        assert_bits_eq(&hg, &hw, "gaussian curv");
        let sg = g.quality_terms(0.7, &ln_v, &p, &c, &mut gg, &mut hg);
        let sw = w.quality_terms(0.7, &ln_v, &p, &c, &mut gw, &mut hw);
        assert_eq!(sg.to_bits(), sw.to_bits(), "quality sum, n={n}");
        assert_bits_eq(&gg, &gw, "quality grad");
        assert_bits_eq(&hg, &hw, "quality curv");
    }
}

proptest! {
    #[test]
    fn gaussian_terms_paths_bit_equal(
        ln_v in prop::collection::vec(-12.0f64..12.0, 1..70),
        seed in any::<u64>(),
    ) {
        let Some(w) = wide() else { return Ok(()); };
        let g = generic();
        let n = ln_v.len();
        let k: Vec<f64> = (0..n)
            .map(|i| {
                let r = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                1e-9 + (r >> 11) as f64 / (1u64 << 53) as f64 * 100.0
            })
            .collect();
        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let (mut hg, mut hw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.gaussian_terms(&ln_v, &k, &mut gg, &mut hg);
        let sw = w.gaussian_terms(&ln_v, &k, &mut gw, &mut hw);
        prop_assert_eq!(sg.to_bits(), sw.to_bits());
        for i in 0..n {
            prop_assert_eq!(gg[i].to_bits(), gw[i].to_bits());
            prop_assert_eq!(hg[i].to_bits(), hw[i].to_bits());
        }
    }

    #[test]
    fn quality_terms_paths_bit_equal(
        ln_v in prop::collection::vec(-12.0f64..12.0, 1..70),
        p0 in prop::collection::vec(0.0f64..1.0, 70..71),
        eps in 1e-3f64..4.0,
        card in 2u32..12,
    ) {
        let Some(w) = wide() else { return Ok(()); };
        let g = generic();
        let n = ln_v.len();
        let p: Vec<f64> = p0[..n].iter().map(|&x| tcrowd_stat::clamp_prob(x)).collect();
        let ln_card1 = ((card - 1) as f64).ln();
        let c: Vec<f64> = p.iter().map(|pi| (1.0 - pi) * ln_card1).collect();
        let (mut gg, mut gw) = (vec![0.0; n], vec![0.0; n]);
        let (mut hg, mut hw) = (vec![0.0; n], vec![0.0; n]);
        let sg = g.quality_terms(eps, &ln_v, &p, &c, &mut gg, &mut hg);
        let sw = w.quality_terms(eps, &ln_v, &p, &c, &mut gw, &mut hw);
        prop_assert_eq!(sg.to_bits(), sw.to_bits());
        for i in 0..n {
            prop_assert_eq!(gg[i].to_bits(), gw[i].to_bits());
            prop_assert_eq!(hg[i].to_bits(), hw[i].to_bits());
        }
    }

    /// The generic path itself must agree with a naive libm evaluation —
    /// this bounds *accuracy*, while the tests above bound *equality*.
    #[test]
    fn generic_gaussian_matches_naive_libm(
        ln_v in prop::collection::vec(-12.0f64..12.0, 1..40),
    ) {
        let g = generic();
        let n = ln_v.len();
        let k: Vec<f64> = (0..n).map(|i| 0.01 + i as f64 * 0.5).collect();
        let mut grad = vec![0.0; n];
        let mut curv = vec![0.0; n];
        let total = g.gaussian_terms(&ln_v, &k, &mut grad, &mut curv);
        let mut naive = 0.0;
        for i in 0..n {
            let v = ln_v[i].exp();
            naive += -0.5 * ((2.0 * std::f64::consts::PI).ln() + ln_v[i]) - k[i] / (2.0 * v);
            let expect = -0.5 + k[i] / (2.0 * v);
            prop_assert!((grad[i] - expect).abs() <= 1e-10 * expect.abs().max(1.0));
        }
        prop_assert!((total - naive).abs() <= 1e-9 * naive.abs().max(1.0));
    }
}

/// One kernel evaluation at a single point: `(term, grad, curv)`.
fn gaussian_at(kern: BatchKernels, ln_v: f64, k: f64) -> (f64, f64, f64) {
    let (mut g, mut h) = ([0.0], [0.0]);
    let t = kern.gaussian_terms(&[ln_v], &[k], &mut g, &mut h);
    (t, g[0], h[0])
}

fn quality_at(kern: BatchKernels, eps: f64, ln_v: f64, p: f64, c: f64) -> (f64, f64, f64) {
    let (mut g, mut h) = ([0.0], [0.0]);
    let t = kern.quality_terms(eps, &[ln_v], &[p], &[c], &mut g, &mut h);
    (t, g[0], h[0])
}

/// The curvature the kernels write is a second derivative of the objective
/// term they sum, checked by central differences of that same term:
/// exactly `d²/d(ln v)²` for continuous answers, and for categorical ones
/// the Gauss–Newton form, i.e. the second difference minus the
/// `(p/q − (1−p)/(1−q))·q''` part (with `q''` itself a central difference of
/// the kernel's `q'`). At `p = q` that part vanishes, so there the
/// curvature must match the plain second difference.
#[test]
fn curvature_matches_central_second_difference() {
    let mut kerns = vec![generic()];
    kerns.extend(wide());
    let d = 1e-4;
    for kern in kerns {
        for i in 0..=40 {
            let x = -4.0 + i as f64 * 0.2;
            let k = 0.3 + 0.05 * i as f64;
            let (f0, _, h) = gaussian_at(kern, x, k);
            let (fp, ..) = gaussian_at(kern, x + d, k);
            let (fm, ..) = gaussian_at(kern, x - d, k);
            let fd = (fp - 2.0 * f0 + fm) / (d * d);
            assert!((h - fd).abs() <= 1e-5 * (1.0 + fd.abs()), "gaussian at {x}: {h} vs {fd}");

            let eps = 0.5;
            let mut qd = [[0.0; 1]; 3];
            let mut dqd = [[0.0; 1]; 3];
            for (j, xx) in [x - d, x, x + d].into_iter().enumerate() {
                kern.quality_pairs_from_ln_variance(eps, &[xx], &mut qd[j], &mut dqd[j]);
            }
            let q = qd[1][0];
            let q2 = (dqd[2][0] - dqd[0][0]) / (2.0 * d);
            for p in [q, 0.05, 0.5, 0.97] {
                let c = (1.0 - p) * 2.0f64.ln();
                let (f0, _, h) = quality_at(kern, eps, x, p, c);
                let (fp, ..) = quality_at(kern, eps, x + d, p, c);
                let (fm, ..) = quality_at(kern, eps, x - d, p, c);
                let fd = (fp - 2.0 * f0 + fm) / (d * d);
                let gauss_newton = fd - (p / q - (1.0 - p) / (1.0 - q)) * q2;
                assert!(h <= 0.0, "categorical curvature {h} > 0 at {x}");
                assert!(
                    (h - gauss_newton).abs() <= 1e-4 * (1.0 + gauss_newton.abs()),
                    "categorical at {x}, p {p}: {h} vs {gauss_newton} (raw {fd})"
                );
            }
        }
    }
}
