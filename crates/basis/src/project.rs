//! Quadrature projection of analytic functions onto the modal basis.
//!
//! Used once per simulation to set initial conditions (as in Gkeyll). The
//! *update loop* never calls this — the scheme is quadrature-free.
//!
//! The Gauss points on the reference cell are the same for every cell, so
//! a [`Projector`] tabulates them once per (basis, `npts`) pair — nodes,
//! weights and the basis values at the nodes — and projecting a cell then
//! allocates nothing and evaluates no basis function. Callers build one
//! projector per grid sweep and reuse it for every cell.
//!
//! **Bit-identity contract.** [`Projector::project`] produces, bit for
//! bit, what the per-point loop "walk the tensor Gauss grid in odometer
//! order (dimension 0 fastest), evaluate every basis function with
//! [`Basis::eval_all_with`], accumulate `out_i += (w·f(z))·w_i(ξ)`"
//! produces: same point order, same weight product, same left-to-right
//! basis product, same sum order. The table therefore never changes an
//! initial state, trajectory, checkpoint or golden file. The unit tests
//! keep that per-point loop as the reference and compare bitwise.

use crate::basis::{eval_legendre_1d, Basis};
use dg_poly::quad::GaussRule;
use dg_poly::MAX_DIM;

/// The reference-cell quadrature of one (basis, `npts`) pair, tabulated
/// for repeated L2 projection: `out_i = ∫_ref f(z(ξ)) w_i(ξ) dξ`, so that
/// the stored DG expansion is `f_h(z) = Σ_i out_i w_i(ξ(z))`.
///
/// `npts` Gauss points per dimension make the rule exact for integrands
/// of polynomial degree `2·npts − 1` per dimension; `npts ≥ p + 1` is what
/// an L2 projection onto a degree-`p` basis needs.
///
/// The basis table factors out the slowest (last) dimension: `lead` holds
/// the product of the first `ndim − 1` 1D Legendre factors for each of the
/// `npts^(ndim−1)` leading points, `last` the last factor for each of the
/// `npts` last-dimension nodes. Multiplying them at projection time is the
/// final step of [`Basis::eval_all_with`]'s left-to-right product, so the
/// values are unchanged while the table stays `npts^(ndim−1)·Np +
/// npts·Np` doubles (a full `npts^ndim·Np` table would be 32 MB for
/// 3X3V p=2).
#[derive(Debug)]
pub struct Projector {
    ndim: usize,
    np: usize,
    nodes: Vec<f64>,
    weights: Vec<f64>,
    /// `lead[q·Np + i] = ∏_{d < ndim−1} P̃_{e_d(i)}(ξ_d(q))`, leading points
    /// `q` in odometer order (dimension 0 fastest).
    lead: Vec<f64>,
    /// `last[k·Np + i] = P̃_{e_{ndim−1}(i)}(node_k)`.
    last: Vec<f64>,
}

impl Projector {
    /// Tabulate the `npts`-point Gauss rule and the basis at its nodes.
    // dg-analyze: allow(hot_alloc) — constructor: the tables are built once per grid sweep, before the per-cell loop
    pub fn new(basis: &Basis, npts: usize) -> Self {
        let rule = GaussRule::new(npts);
        let ndim = basis.ndim();
        let np = basis.len();
        let n1 = basis.poly_order() + 1;
        // leg[k·n1 + m] = P̃_m(node_k): the same values `eval_all_with`
        // writes into its per-dimension scratch at ξ_d = node_k.
        let mut leg = vec![0.0; npts * n1];
        for (k, &x) in rule.nodes.iter().enumerate() {
            eval_legendre_1d(x, &mut leg[k * n1..(k + 1) * n1]);
        }
        let nlead = npts.pow(ndim as u32 - 1);
        let mut lead = vec![0.0; nlead * np];
        let mut idx = [0usize; MAX_DIM];
        for row in lead.chunks_exact_mut(np) {
            for (v, e) in row.iter_mut().zip(basis.all_exps()) {
                let mut acc = 1.0;
                for d in 0..ndim - 1 {
                    acc *= leg[idx[d] * n1 + e[d] as usize];
                }
                *v = acc;
            }
            odometer_step(&mut idx[..ndim - 1], npts);
        }
        let mut last = vec![0.0; npts * np];
        for (k, row) in last.chunks_exact_mut(np).enumerate() {
            for (v, e) in row.iter_mut().zip(basis.all_exps()) {
                *v = leg[k * n1 + e[ndim - 1] as usize];
            }
        }
        Projector {
            ndim,
            np,
            nodes: rule.nodes,
            weights: rule.weights,
            lead,
            last,
        }
    }

    /// L2-project `f(z)` (physical coordinates) onto the basis on the cell
    /// with the given `center`/`dx`, writing `out[..Np]`.
    pub fn project(
        &self,
        center: &[f64],
        dx: &[f64],
        f: &mut impl FnMut(&[f64]) -> f64,
        out: &mut [f64],
    ) {
        self.project_components(center, dx, &mut |z: &[f64]| [f(z)], out);
    }

    /// Project the `N` components of `f(z)` in one pass over the Gauss
    /// points (one `f` call per point), component `c` into
    /// `out[c·Np..(c+1)·Np]`. Each component's sums are those
    /// [`Projector::project`] would form for it alone.
    pub fn project_components<const N: usize>(
        &self,
        center: &[f64],
        dx: &[f64],
        f: &mut impl FnMut(&[f64]) -> [f64; N],
        out: &mut [f64],
    ) {
        let (ndim, np) = (self.ndim, self.np);
        let out = &mut out[..N * np];
        out.fill(0.0);
        let mut idx = [0usize; MAX_DIM];
        let mut z = [0.0; MAX_DIM];
        // The last dimension is the odometer's slowest digit, so walking
        // `last` rows outside and `lead` rows inside is the tensor Gauss
        // grid in its usual order.
        for (k, last) in self.last.chunks_exact(np).enumerate() {
            idx[ndim - 1] = k;
            for lead in self.lead.chunks_exact(np) {
                let mut w = 1.0;
                for d in 0..ndim {
                    z[d] = center[d] + 0.5 * dx[d] * self.nodes[idx[d]];
                    w *= self.weights[idx[d]];
                }
                let wf = f(&z[..ndim]).map(|v| w * v);
                for (out_c, wf_c) in out.chunks_exact_mut(np).zip(wf) {
                    for ((o, &a), &b) in out_c.iter_mut().zip(lead).zip(last) {
                        *o += wf_c * (a * b);
                    }
                }
                odometer_step(&mut idx[..ndim - 1], self.nodes.len());
            }
        }
    }
}

/// Advance a base-`n` odometer, digit 0 fastest; wraps to all zeros.
fn odometer_step(idx: &mut [usize], n: usize) {
    for digit in idx {
        *digit += 1;
        if *digit < n {
            return;
        }
        *digit = 0;
    }
}

/// The cell average of a modal expansion: the constant mode carries the
/// mean through `f̄ = f_0 · w_0 = f_0 · 2^{-d/2}`.
pub fn cell_average(basis: &Basis, coeffs: &[f64]) -> f64 {
    coeffs[0] * (2.0f64).powi(-(basis.ndim() as i32)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::BasisKind;
    use dg_poly::quad::TensorGauss;

    /// The per-point projection the table replaces, kept as the bitwise
    /// reference: walk the tensor Gauss grid, evaluate every basis
    /// function at each point, accumulate.
    fn reference_project(
        basis: &Basis,
        npts: usize,
        center: &[f64],
        dx: &[f64],
        f: &mut impl FnMut(&[f64]) -> f64,
        out: &mut [f64],
    ) {
        let ndim = basis.ndim();
        let np = basis.len();
        out[..np].fill(0.0);
        let mut xi = vec![0.0; ndim];
        let mut z = vec![0.0; ndim];
        let mut scratch = vec![0.0; ndim * (basis.poly_order() + 1)];
        let mut wvals = vec![0.0; np];
        let mut tg = TensorGauss::new(npts, ndim);
        while let Some(w) = tg.next_point(&mut xi) {
            for d in 0..ndim {
                z[d] = center[d] + 0.5 * dx[d] * xi[d];
            }
            let fv = f(&z);
            basis.eval_all_with(&xi, &mut scratch, &mut wvals);
            for i in 0..np {
                out[i] += w * fv * wvals[i];
            }
        }
    }

    /// A non-polynomial integrand that mixes every coordinate.
    fn bumpy(z: &[f64]) -> f64 {
        let s: f64 = z
            .iter()
            .enumerate()
            .map(|(d, x)| (d as f64 + 0.7) * x)
            .sum();
        (-0.3 * s * s).exp() * (1.0 + 0.4 * (2.1 * z[0]).sin())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn projector_matches_per_point_reference_bitwise() {
        for kind in [
            BasisKind::MaximalOrder,
            BasisKind::Serendipity,
            BasisKind::Tensor,
        ] {
            for ndim in 1..=MAX_DIM {
                // Off-centre, anisotropic cell.
                let center: Vec<f64> = (0..ndim).map(|d| 0.37 - 0.61 * d as f64).collect();
                let dx: Vec<f64> = (0..ndim).map(|d| 0.23 + 0.41 * d as f64).collect();
                for p in 1..=3 {
                    let b = Basis::new(kind, ndim, p);
                    for npts in p + 1..=p + 3 {
                        // The reference costs ~ npts^ndim · Np · ndim in an
                        // unoptimised test build; the largest 6D cases
                        // (tensor Np = 4096) check the minimal rule only.
                        let work = npts.pow(ndim as u32) * b.len() * (ndim + 3);
                        if npts > p + 1 && work > 30_000_000 {
                            continue;
                        }
                        let mut want = vec![0.0; b.len()];
                        reference_project(&b, npts, &center, &dx, &mut bumpy, &mut want);
                        let mut got = vec![f64::NAN; b.len()];
                        Projector::new(&b, npts).project(&center, &dx, &mut bumpy, &mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{kind:?} ndim={ndim} p={p} npts={npts}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn components_match_scalar_projection_bitwise() {
        let b = Basis::new(BasisKind::Serendipity, 2, 2);
        let proj = Projector::new(&b, 5);
        let (center, dx) = ([0.4, -1.3], [0.3, 0.9]);
        let comps = |z: &[f64]| [bumpy(z), z[0] * z[1], (3.0 * z[1]).cos()];
        let mut all = vec![0.0; 3 * b.len()];
        proj.project_components(&center, &dx, &mut |z: &[f64]| comps(z), &mut all);
        for c in 0..3 {
            let mut one = vec![0.0; b.len()];
            proj.project(&center, &dx, &mut |z: &[f64]| comps(z)[c], &mut one);
            assert_eq!(bits(&all[c * b.len()..(c + 1) * b.len()]), bits(&one));
        }
    }

    #[test]
    fn projection_reproduces_polynomials_exactly() {
        // A quadratic in the Serendipity space projects exactly and
        // evaluates back to itself.
        let b = Basis::new(BasisKind::Serendipity, 2, 2);
        let center = [1.0, -2.0];
        let dx = [0.5, 2.0];
        let mut f = |z: &[f64]| 1.0 + 0.3 * z[0] - 0.7 * z[1] + 0.2 * z[0] * z[1] + z[1] * z[1];
        let mut coeffs = vec![0.0; b.len()];
        Projector::new(&b, 3).project(&center, &dx, &mut f, &mut coeffs);
        for &(x, y) in &[(0.9, -2.9), (1.2, -1.1), (1.0, -2.0)] {
            let xi = [
                (x - center[0]) / (0.5 * dx[0]),
                (y - center[1]) / (0.5 * dx[1]),
            ];
            let got = b.eval_expansion(&coeffs, &xi);
            let want = f(&[x, y]);
            assert!((got - want).abs() < 1e-12, "at ({x},{y}): {got} vs {want}");
        }
    }

    #[test]
    fn cell_average_of_projection_matches_mean() {
        let b = Basis::new(BasisKind::Tensor, 1, 2);
        let mut f = |z: &[f64]| 3.0 + z[0]; // mean over cell = 3 + center
        let mut coeffs = vec![0.0; b.len()];
        Projector::new(&b, 4).project(&[2.0], &[0.8], &mut f, &mut coeffs);
        assert!((cell_average(&b, &coeffs) - 5.0).abs() < 1e-13);
    }

    #[test]
    fn projection_is_l2_optimal() {
        // Projection residual of a non-member function is orthogonal to the
        // basis: re-projecting the evaluated expansion changes nothing.
        let b = Basis::new(BasisKind::MaximalOrder, 1, 2);
        let proj = Projector::new(&b, 8);
        let mut f = |z: &[f64]| (z[0]).sin();
        let mut c1 = vec![0.0; b.len()];
        proj.project(&[0.3], &[1.0], &mut f, &mut c1);
        let mut g = |z: &[f64]| {
            let xi = [(z[0] - 0.3) / 0.5];
            b.eval_expansion(&c1, &xi)
        };
        let mut c2 = vec![0.0; b.len()];
        proj.project(&[0.3], &[1.0], &mut g, &mut c2);
        for i in 0..b.len() {
            assert!((c1[i] - c2[i]).abs() < 1e-12);
        }
    }
}
