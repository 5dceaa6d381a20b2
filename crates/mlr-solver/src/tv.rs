//! Total-variation machinery.
//!
//! The TV term of the reconstruction objective needs three pieces: the
//! forward-difference gradient `∇u` (a 3-component vector field), its
//! adjoint (the negative divergence, used when differentiating the augmented
//! Lagrangian), and the isotropic shrinkage operator that solves the RSP in
//! closed form. The solver runs them fused over one [`DualField`]
//! ([`DualField::add_coupling_gradient`], [`DualField::rsp_update`]),
//! bit-identical to the composed gradient, divergence, shrink and TV norm
//! the repository's test reference carries: each element keeps its
//! expression, each sum its order and start value.
//!
//! `u` and the dual field are stored in `f32` and every stencil runs in
//! `f64`: a value is widened when it is read and narrowed once when it is
//! written; every sum accumulates in `f64`.

use mlr_math::{Array3, Shape3};

/// Calls `f(idx, [jk, k], ahead, behind)` for every voxel `(i, j, k)` of
/// `shape` in storage order (`jk` indexes it in its plane): `ahead[c]` says
/// it has a forward neighbour along axis `c`, `behind[c]` a backward one.
fn for_each_voxel(shape: Shape3, mut f: impl FnMut(usize, [usize; 2], [bool; 3], [bool; 3])) {
    let (n1, n0, n2) = shape.dims();
    let mut idx = 0;
    for i in 0..n1 {
        for j in 0..n0 {
            for k in 0..n2 {
                let ahead = [i + 1 < n1, j + 1 < n0, k + 1 < n2];
                f(idx, [j * n2 + k, k], ahead, [i > 0, j > 0, k > 0]);
                idx += 1;
            }
        }
    }
}

/// Index steps of the three axes of `shape`.
fn strides(shape: Shape3) -> [usize; 3] {
    let (_, n0, n2) = shape.dims();
    [n0 * n2, n2, 1]
}

/// `u`'s forward differences at voxel `idx`, zero along an axis ending
/// there, each taken in `f64`.
fn forward_diffs(u: &[f32], at: usize, ahead: [bool; 3], step: [usize; 3]) -> [f64; 3] {
    let x = f64::from(u[at]);
    std::array::from_fn(|c| {
        if ahead[c] {
            f64::from(u[at + step[c]]) - x
        } else {
            0.0
        }
    })
}

/// The isotropic magnitude `√(x² + y² + z²)` of one vector.
fn magnitude(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// One vector's magnitude shrunk by `threshold`, direction kept.
fn shrunk(v: [f64; 3], threshold: f64) -> [f64; 3] {
    let mag = magnitude(v);
    if mag > threshold {
        let scale = (mag - threshold) / mag;
        v.map(|x| x * scale)
    } else {
        [0.0; 3]
    }
}

/// The ADMM dual pair `(ψ, λ)` as one field, `arg`: the last RSP's shrink
/// argument `a = ∇u + λ/ρ_used`. By Moreau's decomposition,
/// `ψ = shrink(a, α/ρ_used)` and `λ/ρ_now = (ρ_used/ρ_now)·(a − ψ)`.
pub struct DualField {
    /// `a`'s components along volume axes 0 (`n1`), 1 (`n0`, vertical) and
    /// 2 (`n2`), in `f32` (zero before the first RSP: `ψ = λ = 0`).
    pub arg: [Array3<f32>; 3],
    /// `α/ρ_used`, the threshold `a` was shrunk at.
    pub threshold: f64,
    /// `ρ_used`, the penalty `a` was formed at.
    pub rho: f64,
    /// The coupling stencil's `∇u − g` of the last `i` plane and `j` row.
    rolling: [Vec<f64>; 2],
}

/// `a` at voxel `idx`, widened.
fn widened(a: &[&mut [f32]; 3], idx: usize) -> [f64; 3] {
    [
        f64::from(a[0][idx]),
        f64::from(a[1][idx]),
        f64::from(a[2][idx]),
    ]
}

/// `ψ` and `λ/ρ_now` at one voxel of `a`, `ratio = ρ_used/ρ_now`.
fn split(a: [f64; 3], threshold: f64, ratio: f64) -> ([f64; 3], [f64; 3]) {
    let psi = shrunk(a, threshold);
    (psi, std::array::from_fn(|c| ratio * (a[c] - psi[c])))
}

/// The sums [`DualField::rsp_update`] takes on its way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RspSums {
    /// `‖∇u − ψ‖²` with the new `ψ` (the primal residual, squared).
    pub primal_sqr: f64,
    /// `‖ψ‖²` of the new `ψ`.
    pub psi_sqr: f64,
    /// `TV(u) = Σ ‖∇u‖`, the isotropic TV norm.
    pub tv: f64,
}

impl DualField {
    /// `ψ = λ = 0` over `shape`.
    pub fn zeros(shape: Shape3) -> Self {
        let (_, n0, n2) = shape.dims();
        Self {
            arg: std::array::from_fn(|_| Array3::zeros(shape)),
            threshold: 0.0,
            rho: 1.0,
            rolling: [vec![0.0; n0 * n2], vec![0.0; n2]],
        }
    }

    /// Adds the augmented-Lagrangian coupling `ρ ∇ᵀ(∇u − g)`, `g = ψ − λ/ρ`,
    /// into `grad` in one stencil pass that forms `g` once per voxel and each
    /// difference of `∇u − g` once (the backward neighbours' from rolling
    /// plane, row and voxel buffers); no field is materialised. Bit-identical
    /// to `grad.axpby(1.0, &divergence(&diff), rho)` over `u` and `a`
    /// widened, with `ψ = shrink(a)`, `l = a − ψ`,
    /// `g = ψ.axpby(1.0, l, −ρ_used/ρ)` and `diff = ∇u.axpby(1.0, g, −1.0)`
    /// formed component by component.
    pub fn add_coupling_gradient(&mut self, grad: &mut Array3<f64>, u: &Array3<f32>, rho: f64) {
        let (shape, u, grad) = (u.shape(), u.as_slice(), grad.as_mut_slice());
        let (steps, ratio) = (strides(shape), self.rho / rho);
        let Self {
            arg,
            threshold,
            rolling: [plane, row],
            ..
        } = self;
        let a = arg.each_mut().map(|c| c.as_mut_slice());
        let mut voxel = 0.0;
        for_each_voxel(shape, |idx, [jk, k], ahead, behind| {
            let (psi, scaled) = split(widened(&a, idx), *threshold, ratio);
            let diffs = forward_diffs(u, idx, ahead, steps);
            let (mut acc, rolling) = (0.0, [&mut plane[jk], &mut row[k], &mut voxel]);
            for (c, prev) in rolling.into_iter().enumerate() {
                let behind_diff = *prev;
                if ahead[c] {
                    *prev = diffs[c] - (psi[c] - scaled[c]);
                    acc += *prev;
                }
                if behind[c] {
                    acc -= behind_diff;
                }
            }
            grad[idx] += -acc * rho;
        });
    }

    /// The RSP and the dual update in one pass over `(u, a)`: `a ← ∇u + λ/ρ`
    /// in place (the dual update, narrowed once as it is stored),
    /// `ψ = shrink(a, α/ρ)` of the `f64` value (the RSP), summing the
    /// squared primal residual `∇u − ψ`, `‖ψ‖²` and `TV(u)` in voxel order.
    /// Bit-identical to the composed gradient / `axpby` / shrink / `dot` /
    /// TV-norm sequence over `u` widened, `a` narrowed last; no vector field
    /// is allocated.
    pub fn rsp_update(&mut self, u: &Array3<f32>, alpha: f64, rho: f64) -> RspSums {
        let (shape, u) = (u.shape(), u.as_slice());
        let (steps, old_threshold, ratio) = (strides(shape), self.threshold, self.rho / rho);
        let (mut a, threshold) = (self.arg.each_mut().map(|c| c.as_mut_slice()), alpha / rho);
        // Per component, as `Array3::dot`: from `f64: Sum`'s start value, −0.
        let (mut primal_sqr, mut psi_sqr, mut tv) = ([-0.0; 3], [-0.0; 3], 0.0);
        for_each_voxel(shape, |idx, _, ahead, _| {
            let g = forward_diffs(u, idx, ahead, steps);
            tv += magnitude(g);
            let (_, scaled) = split(widened(&a, idx), old_threshold, ratio);
            let arg: [f64; 3] = std::array::from_fn(|c| g[c] + scaled[c]);
            for (a, x) in a.iter_mut().zip(arg) {
                a[idx] = x as f32;
            }
            let p = shrunk(arg, threshold);
            for c in 0..3 {
                let r = g[c] - p[c];
                primal_sqr[c] += r * r;
                psi_sqr[c] += p[c] * p[c];
            }
        });
        (self.threshold, self.rho) = (threshold, rho);
        let total = |s: [f64; 3]| s[0] + s[1] + s[2];
        RspSums {
            primal_sqr: total(primal_sqr),
            psi_sqr: total(psi_sqr),
            tv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn random_volume(n: usize, seed: u64) -> Array3<f32> {
        let (mut rng, shape) = (seeded(seed), Shape3::cube(n));
        Array3::from_vec(
            shape,
            (0..shape.len()).map(|_| rng.gen::<f32>() - 0.5).collect(),
        )
    }

    /// `∇u` at every voxel, in storage order, as the stencils take it.
    fn gradient(u: &Array3<f32>) -> Vec<[f64; 3]> {
        let (steps, mut g) = (strides(u.shape()), Vec::with_capacity(u.len()));
        for_each_voxel(u.shape(), |idx, _, ahead, _| {
            g.push(forward_diffs(u.as_slice(), idx, ahead, steps));
        });
        g
    }

    /// `TV(u)` as the RSP sums it.
    fn tv_norm(u: &Array3<f32>) -> f64 {
        DualField::zeros(u.shape()).rsp_update(u, 1.0, 1.0).tv
    }

    #[test]
    fn gradient_of_constant_is_zero() {
        let u = Array3::filled(Shape3::cube(6), 3.7f32);
        assert!(gradient(&u).iter().all(|g| *g == [0.0; 3]));
        assert_eq!(tv_norm(&u), 0.0);
    }

    #[test]
    fn gradient_of_linear_ramp() {
        let (n, shape) = (5, Shape3::cube(5));
        let ramp = (0..n).flat_map(|i| vec![2.0 * i as f32; n * n]).collect();
        let g = gradient(&Array3::from_vec(shape, ramp));
        let at = |i, j, k| g[shape.offset(i, j, k)];
        // Interior axis-0 differences are 2, boundary plane is 0, other axes are 0.
        assert_eq!(at(0, 0, 0)[0], 2.0);
        assert_eq!(at(n - 2, 1, 1)[0], 2.0);
        assert_eq!(at(n - 1, 1, 1)[0], 0.0);
        assert_eq!(at(1, 1, 1)[1], 0.0);
        assert_eq!(at(1, 1, 1)[2], 0.0);
    }

    #[test]
    fn gradient_divergence_adjointness() {
        // At u = 0, threshold 0 and ρ = 1, ψ = a and λ = 0, so the coupling
        // adds −∇ᵀa: <∇v, a> == −<v, grad>.
        let (v, shape) = (random_volume(6, 1), Shape3::cube(6));
        let mut dual = DualField::zeros(shape);
        dual.arg = [10, 11, 12].map(|seed| random_volume(6, seed));
        let mut grad = Array3::zeros(shape);
        dual.add_coupling_gradient(&mut grad, &Array3::zeros(shape), 1.0);
        let a = |c: usize, idx: usize| f64::from(dual.arg[c].as_slice()[idx]);
        let lhs: f64 = (gradient(&v).iter().enumerate())
            .map(|(idx, g)| (0..3).map(|c| g[c] * a(c, idx)).sum::<f64>())
            .sum();
        let rhs: f64 = -(v.as_slice().iter().zip(grad.as_slice()))
            .map(|(&x, &d)| f64::from(x) * d)
            .sum::<f64>();
        assert!(
            (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn shrink_thresholds_small_vectors_to_zero() {
        assert_eq!(shrunk([0.1, 0.0, 0.0], 1.0), [0.0; 3]);
        assert_eq!(shrunk([0.0; 3], 1.0), [0.0; 3]);
        // Magnitude shrinks from 5 to 4, direction preserved (3,4)/5.
        let s = shrunk([0.0, 3.0, 4.0], 1.0);
        assert_eq!(s[0], 0.0);
        assert!((s[1] - 3.0 * 0.8).abs() < 1e-12);
        assert!((s[2] - 4.0 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn shrink_is_identity_at_zero_threshold() {
        let f = [20, 21, 22].map(|seed| random_volume(4, seed));
        for idx in 0..f[0].len() {
            let v = f.each_ref().map(|c| f64::from(c.as_slice()[idx]));
            let s = shrunk(v, 0.0);
            assert!(
                (0..3).all(|c| (s[c] - v[c]).abs() < 1e-12),
                "{s:?} vs {v:?}"
            );
        }
    }

    #[test]
    fn tv_norm_positive_for_nonconstant() {
        assert!(tv_norm(&random_volume(5, 30)) > 0.0);
    }
}
